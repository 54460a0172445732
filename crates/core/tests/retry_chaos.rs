//! Deterministic end-to-end retry coverage: a chaos-shaped *transient*
//! fault (fails once, then heals) must be absorbed by the attached
//! [`RetryPolicy`], counted in the outcome's `resilience.retries`, and
//! counted in the `retry.*` metrics — with the final answer identical to
//! a fault-free run.
#![cfg(feature = "failpoints")]

use std::sync::Arc;

use qp_core::{
    AnswerAlgorithm, PersonalizationOptions, PersonalizeRequest, Personalizer, Profile,
    Resilience, RetryPolicy, SelectionCriterion,
};
use qp_obs::MetricValue;
use qp_storage::failpoint::{self, FailAction, FailScenario};
use qp_storage::{Attribute, DataType, Database, Value};

fn small_db() -> Database {
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
    for mid in 0..60i64 {
        db.insert_by_name(
            "MOVIE",
            vec![
                Value::Int(mid),
                Value::str(format!("m{mid}").as_str()),
                Value::Int(1960 + (mid * 7) % 60),
            ],
        )
        .unwrap();
    }
    db
}

fn profile(db: &Database) -> Profile {
    Profile::parse(db.catalog(), "doi(MOVIE.year < 1985) = (0.8, 0)\n").unwrap()
}

fn spa_options() -> PersonalizationOptions {
    PersonalizationOptions {
        criterion: SelectionCriterion::TopK(1),
        l: 1,
        algorithm: AnswerAlgorithm::Spa,
        ..Default::default()
    }
}

fn counter(p: &Personalizer<'_>, name: &str) -> u64 {
    p.metrics()
        .snapshot()
        .into_iter()
        .find(|r| r.name == name)
        .map(|r| match r.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .unwrap_or(0)
}

#[test]
fn transient_fault_is_retried_and_counted() {
    let db = small_db();
    let profile = profile(&db);
    // Held before the reference run too: failpoints are process-global,
    // and a sibling test's armed `spa.execute` must not fire (and be
    // consumed) inside the fault-free reference.
    let _scenario = FailScenario::setup();

    // Fault-free reference answer first.
    let reference = {
        let mut p = Personalizer::new(&db);
        p.run(PersonalizeRequest::sql(&profile, "select title from MOVIE")
            .options(spa_options()))
            .expect("clean run")
            .report
            .answer
    };

    // SPA's execute site fails exactly once then heals: the shape of a
    // transient fault. Without a retry policy this run would surface a
    // typed error; with one, attempt #2 must succeed.
    failpoint::arm(
        "spa.execute",
        FailAction::ErrorTimes { times: 1, message: "transient blip".into() },
    );

    let mut p = Personalizer::new(&db);
    p.set_resilience(Some(Arc::new(
        Resilience::new().with_retry(RetryPolicy::quick(7)),
    )));
    let outcome = p
        .run(PersonalizeRequest::sql(&profile, "select title from MOVIE")
            .options(spa_options()))
        .expect("retry absorbs the transient fault");

    assert!(
        outcome.resilience.retries >= 1,
        "the outcome must report the retry, got {}",
        outcome.resilience.retries
    );
    assert_eq!(counter(&p, "retry.attempts"), u64::from(outcome.resilience.retries));
    assert!(outcome.is_complete(), "the retried answer is exact, not degraded");
    assert_eq!(outcome.report.answer, reference, "retried answer matches the clean run");
}

#[test]
fn without_retry_policy_the_same_fault_is_a_typed_error() {
    let db = small_db();
    let profile = profile(&db);
    let _scenario = FailScenario::setup();
    failpoint::arm(
        "spa.execute",
        FailAction::ErrorTimes { times: 1, message: "transient blip".into() },
    );

    let mut p = Personalizer::new(&db);
    let result = p.run(
        PersonalizeRequest::sql(&profile, "select title from MOVIE").options(spa_options()),
    );
    let err = result.expect_err("no retry policy: the transient fault surfaces");
    assert!(qp_core::is_transient(&err), "and it is typed as transient: {err}");
}
