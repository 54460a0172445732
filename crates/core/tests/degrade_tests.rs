//! Degradation tests: PPA under a tripped [`qp_exec::QueryGuard`] (or an
//! injected fault) returns `Ok` with a partial ranked answer and a
//! non-empty [`qp_core::Degradation`] — never a panic — and the partial
//! answer never ranks an emitted tuple below an omitted one.

use std::time::Duration;

use qp_core::answer::ppa::{ppa, ppa_guarded};
use qp_core::degrade::{DegradeCause, DegradeEvent};
use qp_core::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
use qp_core::{
    AnswerAlgorithm, PersonalizationOptions, PersonalizationGraph, PersonalizeRequest,
    Personalizer, Profile, Ranking, SelectedPreference,
};
use qp_exec::{CancelToken, Engine, QueryGuard};
// Every test holds a `FailScenario` (a no-op without the `failpoints`
// feature): failpoints are process-global, so a sibling's armed fault
// must not fire inside a test that expects a clean run.
use qp_exec::failpoint::FailScenario;
use qp_sql::{parse_query, Query};
use qp_storage::{Attribute, DataType, Database, Value};

/// Small movies DB with W. Allen comedies, a musical, and old films —
/// the fixture the SPA/PPA unit tests use.
fn movies_db() -> Database {
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

fn setup() -> (Database, Profile, Query, Vec<SelectedPreference>) {
    let db = movies_db();
    let profile = als_profile(&db);
    let graph = PersonalizationGraph::build(&profile);
    let initial = parse_query("select title from MOVIE").unwrap();
    let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
    let selected = fakecrit(&graph, &qc, SelectionCriterion::TopK(3)).unwrap();
    assert_eq!(selected.len(), 3);
    (db, profile, initial, selected)
}

/// Every guarded tuple must appear in the complete answer with the same
/// doi, and no omitted tuple may outrank an emitted one.
fn assert_ranked_prefix(
    partial: &qp_core::PersonalizedAnswer,
    full: &qp_core::PersonalizedAnswer,
) {
    let full_doi = |tid: Option<u64>| {
        full.tuples
            .iter()
            .find(|t| t.tuple_id == tid)
            .unwrap_or_else(|| panic!("tuple {tid:?} not in the complete answer"))
            .doi
    };
    for t in &partial.tuples {
        assert!((full_doi(t.tuple_id) - t.doi).abs() < 1e-9, "doi drifted for {:?}", t.tuple_id);
    }
    let emitted: Vec<Option<u64>> = partial.tuples.iter().map(|t| t.tuple_id).collect();
    let min_emitted =
        partial.tuples.iter().map(|t| t.doi).fold(f64::INFINITY, f64::min);
    for t in &full.tuples {
        if !emitted.contains(&t.tuple_id) {
            assert!(
                t.doi <= min_emitted + 1e-9,
                "omitted tuple {:?} (doi {}) outranks an emitted one (min {})",
                t.tuple_id,
                t.doi,
                min_emitted
            );
        }
    }
}

#[test]
fn expired_deadline_degrades_to_ok() {
    let _s = FailScenario::setup();
    let (db, profile, initial, selected) = setup();
    let mut engine = Engine::new();
    let ranking = Ranking::default();
    let guard = QueryGuard::builder().deadline(Duration::ZERO).build();
    let (answer, _stats, degradation) =
        ppa_guarded(&db, &mut engine, &initial, &profile, &selected, 1, &ranking, None, &guard)
            .expect("degrades, never errors");
    assert!(!degradation.is_complete());
    match &degradation.events[0] {
        DegradeEvent::PpaCutoff { cause: DegradeCause::Deadline(_), .. } => {}
        other => panic!("expected a deadline cutoff, got {other}"),
    }
    // nothing was provably ranked before the first phase: empty is the
    // only correct partial answer
    assert!(answer.tuples.is_empty());
}

#[test]
fn output_budget_yields_exact_ranked_prefix() {
    let _s = FailScenario::setup();
    let (db, profile, initial, selected) = setup();
    let ranking = Ranking::default();
    let mut engine = Engine::new();
    let (full, _) =
        ppa(&db, &mut engine, &initial, &profile, &selected, 1, &ranking).unwrap();
    assert_eq!(full.tuples.len(), 5);

    let mut engine = Engine::new();
    let guard = QueryGuard::builder().max_output_rows(2).build();
    let (partial, _stats, degradation) =
        ppa_guarded(&db, &mut engine, &initial, &profile, &selected, 1, &ranking, None, &guard)
            .expect("degrades, never errors");
    assert_eq!(partial.tuples.len(), 2);
    assert!(!degradation.is_complete());
    match &degradation.events[0] {
        DegradeEvent::PpaCutoff { cause: DegradeCause::OutputBudget(2), .. } => {}
        other => panic!("expected an output-budget cutoff, got {other}"),
    }
    // the budgeted emission is exactly the first two of the complete run
    for (p, f) in partial.tuples.iter().zip(&full.tuples) {
        assert_eq!(p.tuple_id, f.tuple_id);
        assert!((p.doi - f.doi).abs() < 1e-12);
    }
    assert_ranked_prefix(&partial, &full);
}

#[test]
fn cancellation_degrades_to_ok() {
    let _s = FailScenario::setup();
    let (db, profile, initial, selected) = setup();
    let mut engine = Engine::new();
    let token = CancelToken::new();
    token.cancel();
    let guard = QueryGuard::builder().cancel_token(token).build();
    let (answer, _stats, degradation) =
        ppa_guarded(&db, &mut engine, &initial, &profile, &selected, 1, &Ranking::default(), None, &guard)
            .expect("degrades, never errors");
    assert!(answer.tuples.is_empty());
    assert!(!degradation.is_complete());
    match &degradation.events[0] {
        DegradeEvent::PpaCutoff { cause: DegradeCause::Cancelled, .. } => {}
        other => panic!("expected a cancellation cutoff, got {other}"),
    }
}

#[test]
fn unlimited_guard_reports_complete() {
    let _s = FailScenario::setup();
    let (db, profile, initial, selected) = setup();
    let mut engine = Engine::new();
    let (answer, _stats, degradation) = ppa_guarded(
        &db,
        &mut engine,
        &initial,
        &profile,
        &selected,
        1,
        &Ranking::default(),
        None,
        &QueryGuard::unlimited(),
    )
    .unwrap();
    assert!(degradation.is_complete());
    assert_eq!(degradation.summary(), "complete");
    assert_eq!(answer.tuples.len(), 5);
}

#[test]
fn spa_falls_back_to_plain_query_under_budget() {
    let _s = FailScenario::setup();
    let (db, profile, _initial, _selected) = setup();
    // measure what the plain query alone costs in intermediate rows…
    let engine = Engine::new();
    let query = parse_query("select title from MOVIE").unwrap();
    let (plain, stats) = engine.execute_with_stats(&db, &query).unwrap();
    assert_eq!(plain.len(), 5);
    // …and give the run exactly that much: the (much larger) SPA union
    // statement trips, the fallback's fresh attempt fits exactly.
    let guard = QueryGuard::builder().max_intermediate_rows(stats.rows_intermediate).build();
    let options = PersonalizationOptions {
        criterion: SelectionCriterion::TopK(3),
        l: 1,
        algorithm: AnswerAlgorithm::Spa,
        fallback_to_original: true,
        ..Default::default()
    };
    let mut p = Personalizer::new(&db);
    let report = p
        .run(PersonalizeRequest::query(&profile, &query).options(options).guard(guard))
        .unwrap()
        .report;
    assert_eq!(report.answer.tuples.len(), 5, "fallback returns the plain rows");
    assert!(report.answer.tuples.iter().all(|t| t.doi == 0.0));
    assert!(!report.degradation.is_complete());
    match &report.degradation.events[0] {
        DegradeEvent::Fallback { stage, error } => {
            assert_eq!(stage, "spa");
            assert!(error.contains("intermediate rows"), "{error}");
        }
        other => panic!("expected a fallback event, got {other}"),
    }
}

#[test]
fn spa_without_fallback_surfaces_the_error() {
    let _s = FailScenario::setup();
    let (db, profile, _initial, _selected) = setup();
    let query = parse_query("select title from MOVIE").unwrap();
    let guard = QueryGuard::builder().max_intermediate_rows(5).build();
    let options = PersonalizationOptions {
        criterion: SelectionCriterion::TopK(3),
        l: 1,
        algorithm: AnswerAlgorithm::Spa,
        fallback_to_original: false,
        ..Default::default()
    };
    let mut p = Personalizer::new(&db);
    let err = p
        .run(PersonalizeRequest::query(&profile, &query).options(options).guard(guard))
        .unwrap_err();
    assert!(err.to_string().contains("intermediate rows"), "{err}");
}

#[test]
fn ppa_personalizer_reports_degradation() {
    let _s = FailScenario::setup();
    let (db, profile, _initial, _selected) = setup();
    let query = parse_query("select title from MOVIE").unwrap();
    let guard = QueryGuard::builder().max_output_rows(2).build();
    let options = PersonalizationOptions {
        criterion: SelectionCriterion::TopK(3),
        l: 1,
        algorithm: AnswerAlgorithm::Ppa,
        ..Default::default()
    };
    let mut p = Personalizer::new(&db);
    let outcome = p
        .run(PersonalizeRequest::query(&profile, &query).options(options).guard(guard))
        .unwrap();
    assert!(!outcome.is_complete());
    assert_eq!(outcome.answer().tuples.len(), 2);
    assert!(outcome.degradation().summary().contains("output budget"));
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use qp_core::degrade::PpaPhase;
    use qp_exec::failpoint::{self, FailAction, FailScenario};

    #[test]
    fn fault_in_absence_stage_keeps_presence_results() {
        let _s = FailScenario::setup();
        let (db, profile, initial, selected) = setup();
        let ranking = Ranking::default();
        let mut engine = Engine::new();
        let (full, _) = ppa(&db, &mut engine, &initial, &profile, &selected, 1, &ranking).unwrap();

        failpoint::arm("ppa.absence", FailAction::Error("absence phase died".into()));
        let mut engine = Engine::new();
        let (partial, _stats, degradation) = ppa_guarded(
            &db,
            &mut engine,
            &initial,
            &profile,
            &selected,
            1,
            &ranking,
            None,
            &QueryGuard::unlimited(),
        )
        .expect("degrades, never errors");
        assert!(!degradation.is_complete());
        match &degradation.events[0] {
            DegradeEvent::PpaCutoff {
                phase: PpaPhase::Absence(0),
                cause: DegradeCause::Fault(msg),
                ..
            } => assert_eq!(msg, "absence phase died"),
            other => panic!("expected an absence-stage fault cutoff, got {other}"),
        }
        // the presence stage completed: its provably-ranked tuples are kept
        assert!(!partial.tuples.is_empty());
        assert!(partial.tuples.len() < full.tuples.len());
        assert_ranked_prefix(&partial, &full);
    }

    #[test]
    fn fault_mid_presence_stage_degrades() {
        let _s = FailScenario::setup();
        let (db, profile, initial, selected) = setup();
        let ranking = Ranking::default();
        let mut engine = Engine::new();
        let (full, _) = ppa(&db, &mut engine, &initial, &profile, &selected, 1, &ranking).unwrap();

        // first presence query passes, the second faults
        failpoint::arm(
            "ppa.presence",
            FailAction::ErrorAfter { skip: 1, message: "mid-phase fault".into() },
        );
        let mut engine = Engine::new();
        let (partial, _stats, degradation) = ppa_guarded(
            &db,
            &mut engine,
            &initial,
            &profile,
            &selected,
            1,
            &ranking,
            None,
            &QueryGuard::unlimited(),
        )
        .expect("degrades, never errors");
        assert!(!degradation.is_complete());
        match &degradation.events[0] {
            DegradeEvent::PpaCutoff {
                phase: PpaPhase::Presence(1),
                cause: DegradeCause::Fault(_),
                presence_unevaluated,
                ..
            } => assert!(*presence_unevaluated >= 1),
            other => panic!("expected a presence-stage fault cutoff, got {other}"),
        }
        assert_ranked_prefix(&partial, &full);
    }

    #[test]
    fn spa_failpoint_triggers_fallback() {
        let _s = FailScenario::setup();
        let (db, profile, _initial, _selected) = setup();
        failpoint::arm("spa.execute", FailAction::Error("spa statement died".into()));
        let query = parse_query("select title from MOVIE").unwrap();
        let options = PersonalizationOptions {
            criterion: SelectionCriterion::TopK(3),
            l: 1,
            algorithm: AnswerAlgorithm::Spa,
            fallback_to_original: true,
            ..Default::default()
        };
        let mut p = Personalizer::new(&db);
        let report = p
            .run(PersonalizeRequest::query(&profile, &query).options(options))
            .unwrap()
            .report;
        assert_eq!(report.answer.tuples.len(), 5);
        assert!(!report.degradation.is_complete());
        match &report.degradation.events[0] {
            DegradeEvent::Fallback { stage, error } => {
                assert_eq!(stage, "spa");
                assert!(error.contains("spa statement died"), "{error}");
            }
            other => panic!("expected a fallback event, got {other}"),
        }
    }
}
