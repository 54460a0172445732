//! Seeded chaos soak: a multi-thread serving workload under a
//! [`ChaosPlan`], asserting the three sanctioned terminal states.
//!
//! Invariants, per request, for every seed:
//!
//! 1. **No panic escapes [`Personalizer::run`].** Injected worker panics
//!    (`exec.pool.spawn`) are caught at the pool's chunk boundary and
//!    surface as degradations; every other chaos site injects *errors*,
//!    which the degradation/fallback/typed-error machinery absorbs.
//! 2. **Every outcome is well-formed**: a complete answer, a degraded
//!    answer whose report says what was cut, or a typed [`PrefError`].
//! 3. **A run that claims completeness is exact**: its answer is
//!    byte-identical to the chaos-free reference for the same (query,
//!    algorithm) — chaos may degrade or fail a request, but never
//!    silently corrupt one. This also pins parallel/serial identity,
//!    since requests alternate parallelism 1 and 4.
//!
//! A second phase adds concurrent [`SnapshotStore::update`] publishers
//! (tolerating injected `snapshot.update` faults) and re-checks 1–2 plus
//! snapshot atomicity; after disarming, serial and parallel runs on the
//! final epoch must again agree exactly.
//!
//! The `delta_soak_seed_*` tests add the sustained mixed read/write leg:
//! concurrent [`Maintainer::publish`] writers (typed [`DbDelta`]s,
//! including delete-then-reinsert) race maintained readers under the
//! same chaos plan, and after every faulted round the maintained answers
//! must be **byte-identical** to a recompute-from-scratch on the
//! surviving epoch — chaos may reject a publish or drop a registry
//! entry, but never corrupt maintained state.
#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qp_core::{
    AdmissionConfig, AnswerAlgorithm, BreakerConfig, Maintainer, MatRegistry,
    PersonalizationOptions, PersonalizeRequest, PersonalizedAnswer, Personalizer, Profile,
    Resilience, RetryPolicy, SelectionCriterion,
};
use qp_storage::failpoint::FailScenario;
use qp_storage::{Attribute, ChaosPlan, DataType, Database, DbDelta, SnapshotStore, Value};

const THREADS: usize = 4;
const REQUESTS_PER_THREAD: usize = 32;
const QUERIES: [&str; 4] = [
    "select title from MOVIE",
    "select title from MOVIE where year < 1990",
    "select title, year from MOVIE where year > 1975",
    "select title from MOVIE where MOVIE.mid < 200",
];

/// ~280 movies so PPA probe rounds have real fan-out for the pool.
fn big_db() -> Database {
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
    let genres = ["comedy", "thriller", "musical", "drama"];
    for mid in 0..280i64 {
        db.insert_by_name(
            "MOVIE",
            vec![
                Value::Int(mid),
                Value::str(format!("m{mid}").as_str()),
                Value::Int(1960 + (mid * 7) % 60),
            ],
        )
        .unwrap();
        db.insert_by_name(
            "GENRE",
            vec![Value::Int(mid), Value::str(genres[(mid % 4) as usize])],
        )
        .unwrap();
    }
    db
}

fn soak_profile(db: &Database) -> Profile {
    Profile::parse(
        db.catalog(),
        "doi(MOVIE.year < 1985) = (0.8, 0)\n\
         doi(GENRE.genre = 'musical') = (-0.9, 0.6)\n\
         doi(GENRE.genre = 'comedy') = (0.7, 0)\n\
         doi(MOVIE.mid = GENRE.mid) = (0.9)\n",
    )
    .unwrap()
}

fn options(algorithm: AnswerAlgorithm, fallback: bool) -> PersonalizationOptions {
    PersonalizationOptions {
        criterion: SelectionCriterion::TopK(3),
        l: 1,
        algorithm,
        fallback_to_original: fallback,
        ..Default::default()
    }
}

/// The chaos-free answer for (query, algorithm) on the store's current
/// epoch, computed serially.
fn reference(
    store: &Arc<SnapshotStore>,
    profile: &Profile,
    sql: &str,
    algorithm: AnswerAlgorithm,
) -> PersonalizedAnswer {
    let mut p = Personalizer::serving(Arc::clone(store));
    let out = p
        .run(PersonalizeRequest::sql(profile, sql)
            .options(options(algorithm, false))
            .parallelism(1))
        .expect("chaos-free reference run");
    assert!(out.is_complete(), "reference must be exact");
    out.report.answer
}

fn fleet_bundle(seed: u64) -> Arc<Resilience> {
    Arc::new(
        Resilience::new()
            .with_admission(AdmissionConfig {
                max_inflight: THREADS * 2,
                max_queue_wait: Duration::from_millis(200),
            })
            .with_breaker(BreakerConfig {
                window: 24,
                min_samples: 12,
                trip_ratio: 0.7,
                cooldown: Duration::from_millis(10),
                forced_open: false,
            })
            .with_retry(RetryPolicy::new(
                2,
                Duration::from_micros(50),
                Duration::from_millis(1),
                seed | 1,
            )),
    )
}

struct Tally {
    escaped_panics: AtomicUsize,
    complete: AtomicUsize,
    degraded: AtomicUsize,
    errored: AtomicUsize,
    exact_checked: AtomicUsize,
}

impl Tally {
    fn new() -> Self {
        Tally {
            escaped_panics: AtomicUsize::new(0),
            complete: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            errored: AtomicUsize::new(0),
            exact_checked: AtomicUsize::new(0),
        }
    }
}

/// One worker's request stream: queries, algorithms, parallelism, and
/// fallback choice all rotate deterministically per (thread, index).
/// With `mutate_profile` set (phase B), the worker also revises its own
/// profile copy mid-stream — preferences change while queries are in
/// flight, and the version-keyed preference cache must never replay a
/// stale selection.
#[allow(clippy::too_many_arguments)]
fn drive_requests(
    store: &Arc<SnapshotStore>,
    profile: &Profile,
    bundle: &Arc<Resilience>,
    tally: &Tally,
    thread: usize,
    refs: Option<&Vec<(PersonalizedAnswer, PersonalizedAnswer)>>,
    mutate_profile: bool,
    registry: Option<Arc<MatRegistry>>,
) {
    use qp_core::{CompareOp, Doi};

    let mut p = Personalizer::serving(Arc::clone(store));
    if let Some(registry) = registry {
        p = p.with_maintenance(registry);
    }
    p.set_resilience(Some(Arc::clone(bundle)));
    let mut profile = profile.clone();
    for i in 0..REQUESTS_PER_THREAD {
        if mutate_profile && i % 8 == 7 {
            let snap = store.snapshot();
            profile
                .add_selection(
                    snap.catalog(),
                    "MOVIE",
                    "year",
                    CompareOp::Gt,
                    Value::Int(1950 + (thread as i64 * 8) + (i as i64 % 8)),
                    Doi::presence(0.3).unwrap(),
                )
                .expect("profile revision applies");
        }
        let qi = (thread + i) % QUERIES.len();
        let algorithm =
            if i % 2 == 0 { AnswerAlgorithm::Ppa } else { AnswerAlgorithm::Spa };
        let parallelism = if i % 3 == 0 { 4 } else { 1 };
        let fallback = i % 4 == 0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            p.run(PersonalizeRequest::sql(&profile, QUERIES[qi])
                .options(options(algorithm, fallback))
                .parallelism(parallelism))
        }));
        match result {
            Err(_) => {
                tally.escaped_panics.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Ok(outcome)) => {
                if outcome.is_complete() {
                    tally.complete.fetch_add(1, Ordering::Relaxed);
                    if let Some(refs) = refs {
                        let want = match algorithm {
                            AnswerAlgorithm::Ppa => &refs[qi].0,
                            AnswerAlgorithm::Spa => &refs[qi].1,
                        };
                        assert_eq!(
                            outcome.answer(),
                            want,
                            "a run claiming completeness (seed workload {thread}/{i}, \
                             query {qi}, {algorithm:?}, parallelism {parallelism}) \
                             must match the chaos-free reference exactly"
                        );
                        tally.exact_checked.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    // Well-formed degradation: the report names every cut.
                    assert!(!outcome.degradation().events.is_empty());
                    assert_ne!(outcome.degradation().summary(), "complete");
                    tally.degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Err(e)) => {
                // Typed by construction; the Display form must never be
                // a bare panic payload.
                assert!(!e.to_string().is_empty());
                tally.errored.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn soak(seed: u64) {
    let scenario = FailScenario::setup();
    let store = Arc::new(SnapshotStore::new(big_db()));
    let profile = {
        let snap = store.snapshot();
        soak_profile(&snap)
    };

    // Chaos-free references per (query, algorithm) on the fixed epoch.
    let refs: Vec<(PersonalizedAnswer, PersonalizedAnswer)> = QUERIES
        .iter()
        .map(|sql| {
            (
                reference(&store, &profile, sql, AnswerAlgorithm::Ppa),
                reference(&store, &profile, sql, AnswerAlgorithm::Spa),
            )
        })
        .collect();

    // Phase 1: fixed epoch under chaos — completeness claims are audited
    // against the references.
    let plan = ChaosPlan::serving_default(seed);
    plan.arm();
    let bundle = fleet_bundle(seed);
    let tally = Tally::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            let profile = &profile;
            let bundle = &bundle;
            let tally = &tally;
            let refs = &refs;
            scope.spawn(move || {
                drive_requests(store, profile, bundle, tally, t, Some(refs), false, None)
            });
        }
    });
    plan.disarm();

    let escaped = tally.escaped_panics.load(Ordering::Relaxed);
    let complete = tally.complete.load(Ordering::Relaxed);
    let degraded = tally.degraded.load(Ordering::Relaxed);
    let errored = tally.errored.load(Ordering::Relaxed);
    assert_eq!(escaped, 0, "seed {seed}: a panic escaped Personalizer::run");
    assert_eq!(complete + degraded + errored, THREADS * REQUESTS_PER_THREAD);
    assert!(complete > 0, "seed {seed}: mild chaos must let some requests through");
    assert!(
        degraded + errored > 0,
        "seed {seed}: the chaos plan never fired — the soak proved nothing"
    );
    assert!(tally.exact_checked.load(Ordering::Relaxed) >= complete.min(1));

    // Phase 2: same chaos, now with writers publishing snapshot epochs
    // mid-serving. Completeness can no longer be audited against a fixed
    // reference, but the terminal-state and atomicity invariants hold.
    plan.arm();
    let tally2 = Tally::new();
    let writer_rounds = 24;
    std::thread::scope(|scope| {
        {
            let store = &store;
            scope.spawn(move || {
                for i in 0..writer_rounds {
                    // Paired inserts: any served answer sees whole pairs.
                    let base = 1000 + i * 2;
                    let published = store.update(|db| {
                        db.insert_by_name(
                            "MOVIE",
                            vec![Value::Int(base), Value::str("x"), Value::Int(1999)],
                        )?;
                        db.insert_by_name(
                            "MOVIE",
                            vec![Value::Int(base + 1), Value::str("y"), Value::Int(1999)],
                        )
                        .map(|_| ())
                    });
                    // Injected snapshot.update faults reject the whole
                    // batch; both rows or neither.
                    if published.is_err() {
                        continue;
                    }
                }
            });
        }
        for t in 0..THREADS {
            let store = &store;
            let profile = &profile;
            let bundle = &bundle;
            let tally2 = &tally2;
            scope.spawn(move || {
                drive_requests(store, profile, bundle, tally2, t, None, true, None)
            });
        }
    });
    plan.disarm();
    assert_eq!(tally2.escaped_panics.load(Ordering::Relaxed), 0);
    assert_eq!(
        tally2.complete.load(Ordering::Relaxed)
            + tally2.degraded.load(Ordering::Relaxed)
            + tally2.errored.load(Ordering::Relaxed),
        THREADS * REQUESTS_PER_THREAD
    );

    // Snapshot atomicity end to end: the final epoch holds the initial
    // rows plus whole pairs only.
    let rows = store.snapshot().total_rows();
    let movie_rows = rows - 280; // GENRE has exactly 280 rows
    assert!((movie_rows - 280).is_multiple_of(2), "torn publish: {movie_rows} movie rows");

    // After the storm: serial and parallel runs on the final epoch agree
    // exactly (chaos changed the data, never the semantics). The
    // scenario guard is held through this check, so no concurrently
    // running seed can arm its chaos plan inside it.
    for sql in QUERIES {
        for algorithm in [AnswerAlgorithm::Ppa, AnswerAlgorithm::Spa] {
            let serial = reference(&store, &profile, sql, algorithm);
            let mut p = Personalizer::serving(Arc::clone(&store));
            let parallel = p
                .run(PersonalizeRequest::sql(&profile, sql)
                    .options(options(algorithm, false))
                    .parallelism(4))
                .expect("post-chaos parallel run");
            assert!(parallel.is_complete());
            assert_eq!(serial, parallel.report.answer, "parallel ≠ serial after chaos");
        }
    }
    drop(scenario);
}

/// The sustained mixed read/write leg: concurrent delta publishers and
/// maintained readers under chaos, with a byte-identity audit of the
/// maintained registry against recompute-from-scratch after every
/// faulted round.
fn delta_soak(seed: u64) {
    const ROUNDS: usize = 4;
    const WRITERS: usize = 2;
    const PUBLISHES_PER_WRITER: usize = 8;

    let scenario = FailScenario::setup();
    let store = Arc::new(SnapshotStore::new(big_db()));
    let profile = {
        let snap = store.snapshot();
        soak_profile(&snap)
    };
    let maintainer = Maintainer::new(Arc::clone(&store));
    let plan = ChaosPlan::serving_default(seed);
    let bundle = fleet_bundle(seed);
    let published = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let escaped_writer_panics = AtomicUsize::new(0);
    // Rows each writer successfully published in earlier rounds, for
    // value-addressed deletes (only the owning writer touches its rows,
    // so a tracked row is live until that writer deletes it).
    let mut owned: Vec<Vec<(i64, i64)>> = vec![Vec::new(); WRITERS];

    for round in 0..ROUNDS {
        plan.arm();
        let tally = Tally::new();
        let results: Vec<(Vec<(i64, i64)>, usize)> = std::thread::scope(|scope| {
            let writer_handles: Vec<_> = owned
                .iter()
                .enumerate()
                .map(|(w, mine)| {
                    let maintainer = &maintainer;
                    let published = &published;
                    let rejected = &rejected;
                    let escaped = &escaped_writer_panics;
                    scope.spawn(move || {
                        let mut gained: Vec<(i64, i64)> = Vec::new();
                        let mut spent = 0usize;
                        for i in 0..PUBLISHES_PER_WRITER {
                            let base =
                                10_000 + ((round * WRITERS + w) * PUBLISHES_PER_WRITER + i) as i64 * 2;
                            let year = 1960 + (base % 60);
                            let mut delta = DbDelta::new()
                                .insert(
                                    "MOVIE",
                                    vec![
                                        Value::Int(base),
                                        Value::str(format!("w{base}").as_str()),
                                        Value::Int(year),
                                    ],
                                )
                                .insert(
                                    "GENRE",
                                    vec![
                                        Value::Int(base),
                                        Value::str(if base % 2 == 0 { "comedy" } else { "musical" }),
                                    ],
                                );
                            // Every other publish also deletes one of this
                            // writer's earlier rows and reinserts it in the
                            // same delta (tombstone + fresh row id).
                            let mut recycled = None;
                            if i % 2 == 1 && spent < mine.len() {
                                let (mid, year) = mine[spent];
                                let row = vec![
                                    Value::Int(mid),
                                    Value::str(format!("w{mid}").as_str()),
                                    Value::Int(year),
                                ];
                                delta = delta.delete("MOVIE", row.clone()).insert("MOVIE", row);
                                recycled = Some((mid, year));
                            }
                            match catch_unwind(AssertUnwindSafe(|| maintainer.publish(&delta))) {
                                Ok(Ok(_)) => {
                                    published.fetch_add(1, Ordering::Relaxed);
                                    gained.push((base, year));
                                    if recycled.is_some() {
                                        spent += 1;
                                    }
                                }
                                Ok(Err(_)) => {
                                    // Injected snapshot.update faults reject
                                    // the delta wholesale; nothing landed.
                                    rejected.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    escaped.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        (gained, spent)
                    })
                })
                .collect();
            for t in 0..THREADS {
                let store = &store;
                let profile = &profile;
                let bundle = &bundle;
                let tally = &tally;
                let registry = maintainer.registry();
                scope.spawn(move || {
                    drive_requests(store, profile, bundle, tally, t, None, false, Some(registry))
                });
            }
            writer_handles
                .into_iter()
                .map(|handle| handle.join().expect("writer thread"))
                .collect()
        });
        plan.disarm();
        for (w, (gained, spent)) in results.into_iter().enumerate() {
            owned[w].drain(..spent);
            owned[w].extend(gained);
        }

        assert_eq!(
            tally.escaped_panics.load(Ordering::Relaxed),
            0,
            "seed {seed} round {round}: a panic escaped a maintained reader"
        );

        // Quiesce audit: on the epoch that survived the storm, every
        // maintained PPA answer must be byte-identical to a fresh
        // recompute that never saw the registry.
        let epoch = store.snapshot();
        for sql in QUERIES {
            let mut maintained = Personalizer::serving(Arc::clone(&store))
                .with_maintenance(maintainer.registry());
            let got = maintained
                .run(PersonalizeRequest::sql(&profile, sql)
                    .options(options(AnswerAlgorithm::Ppa, false))
                    .parallelism(1))
                .expect("maintained quiesce run");
            assert!(got.is_complete(), "quiesce run must be exact (chaos is disarmed)");
            let mut fresh = Personalizer::shared(Arc::clone(&epoch));
            let want = fresh
                .run(PersonalizeRequest::sql(&profile, sql)
                    .options(options(AnswerAlgorithm::Ppa, false))
                    .parallelism(1))
                .expect("recompute reference");
            assert_eq!(
                got.report.answer, want.report.answer,
                "seed {seed} round {round}: maintained answer diverged from \
                 recompute-from-scratch after a faulted read/write storm ({sql})"
            );
        }
    }

    assert_eq!(escaped_writer_panics.load(Ordering::Relaxed), 0, "seed {seed}: publish panicked");
    assert!(
        published.load(Ordering::Relaxed) > 0,
        "seed {seed}: chaos rejected every publish — the soak proved nothing"
    );
    assert!(
        !maintainer.registry().is_empty(),
        "seed {seed}: the quiesce runs should leave a warm registry"
    );
    drop(scenario);
}

#[test]
fn soak_seed_11() {
    soak(11);
}

#[test]
fn delta_soak_seed_7() {
    delta_soak(7);
}

#[test]
fn delta_soak_seed_23() {
    delta_soak(23);
}

#[test]
fn soak_seed_42() {
    soak(42);
}

#[test]
fn soak_seed_1337() {
    soak(1337);
}
