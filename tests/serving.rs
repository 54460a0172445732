//! Multi-user serving tests: the request/response API, parallel PPA
//! determinism, plan/preference cache lifecycles, shared guard budgets,
//! and store-backed (user-addressed) requests.

use std::sync::Arc;

use personalized_queries::core::{
    AnswerAlgorithm, CompareOp, Doi, MixedKind, PersonalizationOptions, PersonalizedAnswer,
    PersonalizeRequest, Personalizer, Profile, Ranking, RankingKind, SelectionCriterion,
};
use personalized_queries::datagen::{self, ImdbScale, ProfileSpec};
use personalized_queries::exec::{Engine, QueryGuard};
use personalized_queries::storage::Database;

fn db() -> Database {
    let db = datagen::generate(ImdbScale { movies: 800, ..ImdbScale::small() });
    db.warm_statistics();
    db
}

/// A mixed profile so both PPA phases (presence rounds, absence rounds,
/// and the probes against materialized preference results) execute.
fn mixed_profile(db: &Database) -> Profile {
    datagen::random_profile(
        db,
        &ProfileSpec { positive_presence: 8, negative: 3, complex: 0, elastic: 0, seed: 11 },
    )
}

fn ppa_options(k: usize) -> PersonalizationOptions {
    PersonalizationOptions {
        criterion: SelectionCriterion::TopK(k),
        l: 1,
        algorithm: AnswerAlgorithm::Ppa,
        ..Default::default()
    }
}

const SQL: &str = "select title from MOVIE";

/// The cache-lifecycle tests below assert on hit/miss bookkeeping, so
/// they force both caches on: the check.sh sweep re-runs the whole
/// suite with `QP_DISABLE_PLAN_CACHE`/`QP_DISABLE_PREF_CACHE` set, and
/// these tests must describe the caches, not the environment.
fn caching_personalizer(db: &Database) -> Personalizer<'_> {
    let mut p = Personalizer::new(db);
    p.set_plan_cache_enabled(true);
    p.set_preference_cache_enabled(true);
    p
}

/// One preference: movies "around two hours", peaking at `peak`.
fn around_two_hours(db: &Database, peak: f64) -> Profile {
    let dsl = format!("doi(MOVIE.duration = around(120, 30)) = (e({peak}), 0)\n");
    Profile::parse(db.catalog(), &dsl).unwrap()
}

fn answer(
    p: &mut Personalizer<'_>,
    profile: &Profile,
    options: PersonalizationOptions,
) -> PersonalizedAnswer {
    p.run(PersonalizeRequest::sql(profile, SQL).options(options)).unwrap().report.answer
}

#[test]
fn one_personalizer_runs_ppa_with_each_users_degrees() {
    // The two profiles differ only in the peak, which each preference
    // query carries as a literal: the plan compiled for the first user
    // cannot answer the second.
    let db = db();
    let (ann, ben) = (around_two_hours(&db, 0.3), around_two_hours(&db, 0.9));
    let mut p = caching_personalizer(&db);
    let first = answer(&mut p, &ann, ppa_options(1));
    assert!((first.tuples[0].doi - 0.3).abs() < 1e-9, "ann's top doi {}", first.tuples[0].doi);
    let got = answer(&mut p, &ben, ppa_options(1));
    assert!((got.tuples[0].doi - 0.9).abs() < 1e-9, "ben's top doi {}", got.tuples[0].doi);
    assert_eq!(got, answer(&mut Personalizer::new(&db), &ben, ppa_options(1)));
}

#[test]
fn one_personalizer_ranks_each_request_by_its_own_ranking() {
    // Recent dramas satisfy both preferences, with degrees 0.7 and 0.6:
    // inflationary 1 − 0.3 · 0.4 = 0.88, dominant max = 0.7.
    let db = db();
    let profile = Profile::parse(
        db.catalog(),
        "doi(MOVIE.year >= 2000) = (0.7, 0)\n\
         doi(GENRE.genre = 'drama') = (0.6, 0)\n\
         doi(MOVIE.mid = GENRE.mid) = (1)\n",
    )
    .unwrap();
    let spa = |kind| PersonalizationOptions {
        criterion: SelectionCriterion::TopK(2),
        l: 2,
        algorithm: AnswerAlgorithm::Spa,
        ranking: Ranking::new(kind, MixedKind::CountWeighted),
        ..Default::default()
    };
    let mut p = caching_personalizer(&db);
    let inflationary = answer(&mut p, &profile, spa(RankingKind::Inflationary));
    assert!((inflationary.tuples[0].doi - 0.88).abs() < 1e-9, "{}", inflationary.tuples[0].doi);
    let dominant = answer(&mut p, &profile, spa(RankingKind::Dominant));
    assert!((dominant.tuples[0].doi - 0.7).abs() < 1e-9, "dominant: {}", dominant.tuples[0].doi);
}

#[test]
fn parallel_ppa_answers_are_byte_identical_to_serial() {
    let db = db();
    let profile = mixed_profile(&db);
    let mut serial = None;
    for workers in [1usize, 2, 4, 7] {
        let mut p = Personalizer::new(&db);
        let outcome = p
            .run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(8)).parallelism(workers))
            .unwrap();
        match &serial {
            None => serial = Some(outcome.report),
            Some(base) => {
                assert_eq!(
                    base.answer, outcome.report.answer,
                    "parallelism={workers} must reproduce the serial answer exactly"
                );
                assert_eq!(base.selected, outcome.report.selected);
            }
        }
    }
}

#[test]
fn plan_cache_hits_repeat_queries_and_invalidates_on_data_change() {
    let mut db = db();
    let mut engine = Engine::new();
    engine.set_plan_cache_enabled(true);
    assert!(engine.plan_cache().is_some(), "enabling installs a plan cache");

    engine.execute_sql(&db, SQL).unwrap();
    engine.execute_sql(&db, SQL).unwrap();
    let cache = engine.plan_cache().unwrap();
    assert_eq!(cache.hits(), 1, "second identical query reuses the plan");
    assert_eq!(cache.misses(), 1);

    // Any mutation bumps the database version, so the stale plan key no
    // longer matches: the next run replans instead of reusing.
    let before = db.version();
    db.insert_by_name(
        "MOVIE",
        vec![
            personalized_queries::storage::Value::Int(999_999),
            personalized_queries::storage::Value::str("Fresh Film"),
            personalized_queries::storage::Value::Int(2026),
            personalized_queries::storage::Value::Int(100),
        ],
    )
    .unwrap();
    assert!(db.version() > before, "writes bump the database version");
    engine.execute_sql(&db, SQL).unwrap();
    assert_eq!(cache.hits(), 1, "post-write run must not reuse the stale plan");
    assert_eq!(cache.misses(), 2);
}

#[test]
fn outcome_reports_cache_activity_per_run() {
    let db = db();
    let profile = mixed_profile(&db);
    let mut p = caching_personalizer(&db);

    let cold = p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    assert_eq!(cold.cache.plan_hits, 0, "first run has nothing cached");
    assert_eq!(cold.cache.pref_hits, 0);
    assert!(cold.cache.plan_misses > 0);
    assert_eq!(cold.cache.pref_misses, 1);

    let warm = p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    assert!(warm.cache.plan_hits > 0, "repeat run reuses cached plans: {:?}", warm.cache);
    assert_eq!(warm.cache.pref_hits, 1, "repeat run reuses the cached selection");
    assert_eq!(warm.cache.pref_misses, 0);
    assert_eq!(warm.report.selected, cold.report.selected);

    // Disabling the caches for one request bypasses them without
    // discarding the warm entries.
    let bypassed = p
        .run(
            PersonalizeRequest::sql(&profile, SQL)
                .options(ppa_options(6))
                .plan_cache(false)
                .preference_cache(false),
        )
        .unwrap();
    assert_eq!(bypassed.cache.plan_hits, 0);
    assert_eq!(bypassed.cache.pref_hits, 0);
    let warm_again = p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    assert_eq!(warm_again.cache.pref_hits, 1, "warm entries survived the bypassed request");
}

#[test]
fn preference_cache_invalidates_on_profile_mutation() {
    let db = db();
    let mut profile = mixed_profile(&db);
    let mut p = caching_personalizer(&db);

    p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    let warm = p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    assert_eq!(warm.cache.pref_hits, 1);

    // Mutating the profile bumps its version, so the old cache key no
    // longer matches — the selection must be recomputed, not replayed.
    let v = profile.version();
    profile
        .add_selection(db.catalog(), "MOVIE", "year", CompareOp::Ge, 2020, Doi::presence(0.9).unwrap())
        .unwrap();
    assert!(profile.version() > v, "mutation bumps the profile version");
    let after = p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    assert_eq!(after.cache.pref_hits, 0, "stale selection must not be replayed");
    assert_eq!(after.cache.pref_misses, 1);
    assert_eq!(after.profile.version, profile.version());
}

#[test]
fn explicit_invalidation_drops_a_profile_from_the_cache() {
    let db = db();
    let profile = mixed_profile(&db);
    let other = datagen::random_profile(
        &db,
        &ProfileSpec { positive_presence: 5, negative: 0, complex: 0, elastic: 0, seed: 99 },
    );
    let mut p = caching_personalizer(&db);
    p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(6))).unwrap();
    p.run(PersonalizeRequest::sql(&other, SQL).options(ppa_options(4))).unwrap();
    assert_eq!(p.preference_cache().unwrap().len(), 2);

    p.invalidate_profile(profile.id());
    assert_eq!(p.preference_cache().unwrap().len(), 1, "only the named profile is dropped");
    let rerun = p.run(PersonalizeRequest::sql(&other, SQL).options(ppa_options(4))).unwrap();
    assert_eq!(rerun.cache.pref_hits, 1, "the other profile's entry survived");
}

#[test]
fn guard_budget_is_shared_across_parallel_workers() {
    let db = db();
    let profile = mixed_profile(&db);
    // An intermediate-row budget small enough that the PPA probes trip it.
    let tight = || QueryGuard::builder().max_intermediate_rows(2_000).build();

    let run = |parallelism: usize| {
        let mut p = Personalizer::new(&db);
        p.run(
            PersonalizeRequest::sql(&profile, SQL)
                .options(ppa_options(10))
                .guard(tight())
                .parallelism(parallelism),
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(!serial.is_complete(), "the tight budget must trip the serial run");
    assert!(
        !parallel.is_complete(),
        "workers share one budget: 4 threads must trip the same global limit"
    );

    // Degraded answers are still sound: every emitted tuple appears, in
    // rank order, at the top of the unguarded answer.
    let mut p = Personalizer::new(&db);
    let full = p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(10))).unwrap();
    for outcome in [&serial, &parallel] {
        let n = outcome.answer().tuples.len();
        assert!(n < full.answer().tuples.len());
        assert_eq!(outcome.answer().tuples, full.answer().tuples[..n].to_vec());
    }
}

#[test]
fn shared_personalizer_serves_threads_identically() {
    let db = Arc::new(db());
    let profile = Arc::new(mixed_profile(&db));
    let base = {
        let mut p = Personalizer::shared(db.clone());
        p.run(PersonalizeRequest::sql(&profile, SQL).options(ppa_options(8))).unwrap().report
    };
    let answers: Vec<_> = std::thread::scope(|scope| {
        (0..4)
            .map(|i| {
                let db = db.clone();
                let profile = profile.clone();
                scope.spawn(move || {
                    let mut p = Personalizer::shared(db);
                    p.run(
                        PersonalizeRequest::sql(&profile, SQL)
                            .options(ppa_options(8))
                            .parallelism(1 + i % 3),
                    )
                    .unwrap()
                    .report
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for report in answers {
        assert_eq!(report.answer, base.answer);
    }
}

/// A user-addressed request resolved through the [`ProfileStore`] agrees
/// with the same query run against the borrowed profile directly.
#[test]
fn store_backed_requests_agree_with_borrowed() {
    use personalized_queries::core::store::{ProfileStore, UserId};
    use std::sync::Arc;

    let db = db();
    let profile = mixed_profile(&db);
    let options = ppa_options(6);

    let mut p = Personalizer::new(&db);
    let via_borrowed =
        p.run(PersonalizeRequest::sql(&profile, SQL).options(options)).unwrap().report;

    let store = Arc::new(ProfileStore::new());
    let uid = UserId(7);
    store.register(uid, &profile).unwrap();
    let mut p = Personalizer::new(&db).with_profile_store(Arc::clone(&store));
    let via_store =
        p.run(PersonalizeRequest::user(uid, SQL).options(options)).unwrap().report;
    assert_eq!(via_store.answer, via_borrowed.answer);
    assert_eq!(via_store.selected.len(), via_borrowed.selected.len());

    // Running the same query again hits the store's selection memo and
    // still yields the identical answer.
    let again = p.run(PersonalizeRequest::user(uid, SQL).options(options)).unwrap().report;
    assert_eq!(again.answer, via_borrowed.answer);
}
