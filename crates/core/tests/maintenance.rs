//! Incremental maintenance under write traffic: a serving personalizer
//! with a [`qp_core::MatRegistry`] attached must return answers
//! **byte-identical** to a recompute-from-scratch against every published
//! epoch — across generated delta sequences including delete-then-
//! reinsert — while steady-state runs execute zero preference queries.
//! Also pins the memo-outlives-publish invariant: preference selection
//! depends only on the catalog (and the profile), so data deltas must
//! never drop per-user selection memos, and schema publishes must drop
//! them wholesale.
//!
//! Every test takes a [`FailScenario`]: built with `--features
//! failpoints`, one test arms execution faults, and the guard keeps them
//! out of the others.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use qp_core::{
    AnswerAlgorithm, Maintainer, PersonalizeRequest, Personalizer, Profile, ProfileStore,
    SelectionCriterion, UserId,
};
use qp_sql::parse_query;
use qp_storage::failpoint::FailScenario;
use qp_storage::{Attribute, DataType, Database, DbDelta, Row, SnapshotStore, Value};

/// The movies fixture as a snapshot store.
fn movies_store(extra: i64) -> Arc<SnapshotStore> {
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
    Arc::new(SnapshotStore::new(db))
}

/// Mixed profile: `MOVIE.year < 1980` is single-relation, the director
/// and genre preferences join through other relations (carried or
/// patched depending on the delta).
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

/// One generated write against the logical movie catalog. Indices are
/// resolved against the test's model of live MOVIE tuples at delta-build
/// time, so every delete targets a live tuple.
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)]
enum Op {
    /// Insert a fresh movie (never-seen mid) with a genre row.
    InsertMovie { year: i64, musical: bool },
    /// Delete a live movie tuple (by index into the live list).
    DeleteMovie { idx: usize },
    /// Delete a live movie tuple and reinsert the same values in the
    /// same delta — exercises fresh-row-id reinsertion.
    ReinsertMovie { idx: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1950i64..2020, any::<bool>())
            .prop_map(|(year, musical)| Op::InsertMovie { year, musical }),
        (0usize..64).prop_map(|idx| Op::DeleteMovie { idx }),
        (0usize..64).prop_map(|idx| Op::ReinsertMovie { idx }),
    ]
}

fn arb_deltas() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(arb_op(), 1..5), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole parity property: after every published delta, a
    /// maintained personalizer's PPA answer equals a from-scratch
    /// recompute against the same epoch, byte for byte — and once warm,
    /// the maintained run executes zero preference queries.
    #[test]
    fn maintained_answers_match_recompute_over_delta_sequences(deltas in arb_deltas()) {
        let _fp = FailScenario::setup();
        let store = movies_store(10);
        let snapshot = store.snapshot();
        let profile = als_profile(&snapshot);
        let initial = parse_query("select title from MOVIE").unwrap();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let mut maintained = Personalizer::serving(Arc::clone(&store))
            .with_maintenance(maintainer.registry());

        // Model of live MOVIE tuples, for generating valid deletes.
        let mut live: Vec<(i64, String, i64)> = Vec::new();
        for (_, row) in snapshot.table_by_name("MOVIE").unwrap().iter() {
            live.push((
                row[0].as_i64().unwrap(),
                row[1].as_str().unwrap().to_string(),
                row[2].as_i64().unwrap(),
            ));
        }
        let mut next_mid: i64 = live.iter().map(|m| m.0).max().unwrap_or(0) + 1;

        // Warm the registry (first run builds + registers all K results).
        let request = || {
            PersonalizeRequest::query(&profile, &initial)
                .criterion(SelectionCriterion::TopK(3))
                .algorithm(AnswerAlgorithm::Ppa)
        };
        let warm = maintained.run(request()).unwrap();
        prop_assert!(
            warm.report.ppa_stats.map(|s| s.parameterized_queries).unwrap_or(0) > 0,
            "warmup run should execute preference queries"
        );

        for ops in deltas {
            let mut delta = DbDelta::new();
            let mut touched = false;
            // Delta deletes are resolved against the pre-delta snapshot,
            // so a delta may target each live tuple at most once (and may
            // not delete a tuple it inserts itself). Track targeted mids
            // per delta — mids are the MOVIE primary key — and skip ops
            // that would double-target.
            let mut targeted: std::collections::HashSet<i64> = std::collections::HashSet::new();
            for op in ops {
                match op {
                    Op::InsertMovie { year, musical } => {
                        let mid = next_mid;
                        next_mid += 1;
                        let title = format!("Gen {mid}");
                        delta = delta.insert(
                            "MOVIE",
                            vec![Value::Int(mid), Value::str(&*title), Value::Int(year)],
                        );
                        delta = delta.insert(
                            "GENRE",
                            vec![
                                Value::Int(mid),
                                Value::str(if musical { "musical" } else { "comedy" }),
                            ],
                        );
                        live.push((mid, title, year));
                        targeted.insert(mid);
                        touched = true;
                    }
                    Op::DeleteMovie { idx } if !live.is_empty() => {
                        let at = idx % live.len();
                        if targeted.insert(live[at].0) {
                            let (mid, title, year) = live.remove(at);
                            delta = delta.delete(
                                "MOVIE",
                                vec![Value::Int(mid), Value::str(&*title), Value::Int(year)],
                            );
                            touched = true;
                        }
                    }
                    Op::ReinsertMovie { idx } if !live.is_empty() => {
                        let at = idx % live.len();
                        if targeted.insert(live[at].0) {
                            let (mid, title, year) = live[at].clone();
                            let row =
                                vec![Value::Int(mid), Value::str(&*title), Value::Int(year)];
                            delta = delta.delete("MOVIE", row.clone()).insert("MOVIE", row);
                            touched = true;
                        }
                    }
                    _ => {}
                }
            }
            if !touched {
                continue;
            }
            let (epoch, _, _) = maintainer.publish(&delta).unwrap();

            let got = maintained.run(request()).unwrap();
            prop_assert_eq!(
                got.report.ppa_stats.map(|s| s.parameterized_queries),
                Some(0),
                "steady-state maintained run must execute zero preference queries"
            );

            let mut oracle = Personalizer::shared(Arc::clone(&epoch));
            let expect = oracle.run(request()).unwrap();
            prop_assert_eq!(
                &got.report.answer,
                &expect.report.answer,
                "maintained answer != recompute-from-scratch after delta"
            );
        }
    }
}

/// Satellite: the memo-outlives-publish invariant. Preference selection
/// reads the catalog and the profile, never table data, so the per-user
/// selection memo must survive data publishes untouched — and a schema
/// publish must wholesale-drop it, because catalog changes can change
/// what the memoized selection should contain.
#[test]
fn selection_memos_outlive_data_publishes_but_not_schema_changes() {
    let _fp = FailScenario::setup();
    let store = movies_store(4);
    let snapshot = store.snapshot();
    let profile = als_profile(&snapshot);
    let profiles = Arc::new(ProfileStore::new());
    profiles.register(UserId(1), &profile).unwrap();
    let maintainer = Maintainer::new(Arc::clone(&store))
        .with_profile_store(Arc::clone(&profiles));
    let mut serving = Personalizer::serving(Arc::clone(&store))
        .with_profile_store(Arc::clone(&profiles))
        .with_maintenance(maintainer.registry());
    let sql = "select title from MOVIE";
    let request = || {
        PersonalizeRequest::user(UserId(1), sql)
            .criterion(SelectionCriterion::TopK(3))
            .algorithm(AnswerAlgorithm::Ppa)
    };

    let first = serving.run(request()).unwrap();
    let handle = profiles.get(UserId(1)).unwrap();
    assert_eq!(handle.cached_selections(), 1, "first run memoizes its selection");

    // A well-connected insert (Allen comedy from the 70s) that must rank
    // near the top of the post-publish answer.
    let delta = DbDelta::new()
        .insert("MOVIE", vec![Value::Int(900), Value::str("Late Arrival"), Value::Int(1971)])
        .insert("GENRE", vec![Value::Int(900), Value::str("comedy")])
        .insert("DIRECTED", vec![Value::Int(900), Value::Int(1)]);
    maintainer.publish(&delta).unwrap();
    assert_eq!(
        handle.cached_selections(),
        1,
        "a data publish must not drop selection memos (selection is catalog-only)"
    );

    let second = serving.run(request()).unwrap();
    assert_eq!(
        handle.cached_selections(),
        1,
        "the post-publish run reuses the memo instead of re-selecting under a new key"
    );
    assert_eq!(
        first.report.selected, second.report.selected,
        "memoized selection is unchanged by data"
    );
    assert!(
        second.report.answer.tuples.iter().any(|t| {
            t.row.first().and_then(|v| v.as_str()).is_some_and(|s| s == "Late Arrival")
        }),
        "the maintained answer still reflects the published insert"
    );

    maintainer
        .publish_schema(|db| {
            db.create_relation("AWARD", vec![Attribute::new("mid", DataType::Int)], &[])
                .map(|_| ())
        })
        .unwrap();
    assert_eq!(
        handle.cached_selections(),
        0,
        "a schema publish wholesale-drops every selection memo"
    );
    assert!(maintainer.registry().is_empty(), "and clears the registry");
}

/// Steady-state serving under write traffic: once warm, every maintained
/// run resolves all K preference results from the registry (counted as
/// `maint.registry.hits` on the engine's metrics) and executes zero
/// preference queries, across deltas on the tid relation and on a
/// joined one.
#[test]
fn steady_state_runs_replay_the_registry() {
    let _fp = FailScenario::setup();
    let store = movies_store(10);
    let snapshot = store.snapshot();
    let profile = als_profile(&snapshot);
    let initial = parse_query("select title from MOVIE").unwrap();
    let maintainer = Maintainer::new(Arc::clone(&store));
    let mut serving =
        Personalizer::serving(Arc::clone(&store)).with_maintenance(maintainer.registry());
    let request = || {
        PersonalizeRequest::query(&profile, &initial)
            .criterion(SelectionCriterion::TopK(3))
            .algorithm(AnswerAlgorithm::Ppa)
    };

    serving.run(request()).unwrap();
    let k = maintainer.registry().len();
    assert!(k > 0, "warmup registers the run's materializations");

    // A MOVIE-only delta and a GENRE-only delta, the latter patching
    // the join-shaped entries. Both must leave steady state intact.
    let deltas = [
        DbDelta::new().insert(
            "MOVIE",
            vec![Value::Int(800), Value::str("Patch Me"), Value::Int(1977)],
        ),
        DbDelta::new().insert("GENRE", vec![Value::Int(800), Value::str("musical")]),
    ];
    for delta in &deltas {
        maintainer.publish(delta).unwrap();
        let hits_before = serving.metrics().counter("maint.registry.hits").get();
        let out = serving.run(request()).unwrap();
        assert_eq!(
            out.report.ppa_stats.map(|s| s.parameterized_queries),
            Some(0),
            "maintained steady-state run executed preference queries"
        );
        let hits_after = serving.metrics().counter("maint.registry.hits").get();
        assert_eq!(
            hits_after - hits_before,
            k as u64,
            "all K preference results should come from the registry"
        );
    }
}

/// A profile whose preferences reach GENRE and DIRECTOR over joins: the
/// `<>` and range conditions over the to-many GENRE path give a movie
/// several derivations, so a delete can leave it a second one.
fn join_profile(db: &Database) -> Profile {
    Profile::parse(
        db.catalog(),
        "doi(DIRECTOR.name = 'W. Allen') = (0.8, 0)\n\
         doi(DIRECTOR.name <> 'M. Mann') = (0.4, 0)\n\
         doi(GENRE.genre = 'musical') = (-0.9, 0.7)\n\
         doi(GENRE.genre <> 'comedy') = (0.6, 0)\n\
         doi(GENRE.genre >= 'm') = (0.5, 0)\n\
         doi(MOVIE.year < 1980) = (-0.7, 0)\n\
         doi(MOVIE.mid = DIRECTED.mid) = (1)\n\
         doi(DIRECTED.did = DIRECTOR.did) = (0.9)\n\
         doi(MOVIE.mid = GENRE.mid) = (0.8)\n",
    )
    .unwrap()
}

/// The relations on the join paths, none of them the tid relation.
const JOINED: [&str; 3] = ["GENRE", "DIRECTED", "DIRECTOR"];
const GENRES: [&str; 4] = ["comedy", "musical", "thriller", "drama"];
const NAMES: [&str; 4] = ["W. Allen", "M. Mann", "R. Marshall", "J. Doe"];

/// One generated write to a joined relation; `rel` indexes [`JOINED`],
/// `pick` and `value` are resolved against the live rows at build time.
#[derive(Debug, Clone)]
enum JoinOp {
    /// A GENRE tag or DIRECTED link for a live movie (so it joins an
    /// existing movie), or a DIRECTOR row whose `did` may repeat a live
    /// one (a second derivation through DIRECTOR).
    Insert { rel: usize, pick: usize, value: usize },
    /// Delete a live row.
    Delete { rel: usize, pick: usize },
    /// Delete a live row and reinsert its values in the same delta.
    Reinsert { rel: usize, pick: usize },
}

fn arb_join_op() -> impl Strategy<Value = JoinOp> {
    prop_oneof![
        (0usize..3, 0usize..64, 0usize..8)
            .prop_map(|(rel, pick, value)| JoinOp::Insert { rel, pick, value }),
        (0usize..3, 0usize..64).prop_map(|(rel, pick)| JoinOp::Delete { rel, pick }),
        (0usize..3, 0usize..64).prop_map(|(rel, pick)| JoinOp::Reinsert { rel, pick }),
    ]
}

/// Live rows of one relation of the store.
fn rows_of(db: &Database, rel: &str) -> Vec<Row> {
    db.table_by_name(rel).unwrap().iter().map(|(_, row)| row.clone()).collect()
}

/// Builds one delta from `ops` against the model of live rows `live`
/// (indexed like [`JOINED`]), updating the model. A delta targets each
/// live row value at most once and never deletes a row it inserts.
fn join_delta(ops: &[JoinOp], movies: &[Row], live: &mut [Vec<Row>; 3]) -> DbDelta {
    let mut delta = DbDelta::new();
    let mut targeted: HashSet<(usize, Row)> = HashSet::new();
    for op in ops {
        match *op {
            JoinOp::Insert { rel, pick, value } => {
                let mid = movies[pick % movies.len()][0].clone();
                let row = match rel {
                    0 => vec![mid, Value::str(GENRES[value % GENRES.len()])],
                    1 => vec![mid, Value::Int(1 + (value % 4) as i64)],
                    _ => vec![Value::Int(1 + (value % 4) as i64), Value::str(NAMES[pick % 4])],
                };
                targeted.insert((rel, row.clone()));
                live[rel].push(row.clone());
                delta = delta.insert(JOINED[rel], row);
            }
            JoinOp::Delete { rel, pick } | JoinOp::Reinsert { rel, pick } => {
                if live[rel].is_empty() {
                    continue;
                }
                let at = pick % live[rel].len();
                let row = live[rel][at].clone();
                if !targeted.insert((rel, row.clone())) {
                    continue;
                }
                delta = delta.delete(JOINED[rel], row.clone());
                if matches!(op, JoinOp::Reinsert { .. }) {
                    delta = delta.insert(JOINED[rel], row);
                } else {
                    live[rel].remove(at);
                }
            }
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Join-path parity: deltas on GENRE, DIRECTED and DIRECTOR only —
    /// inserts joining existing movies, deletes that leave a movie a
    /// second derivation or none, delete-then-reinsert — keep every
    /// maintained answer byte-identical to a recompute, with zero
    /// preference queries per steady-state read. PPA registers no
    /// `NOT IN` entry (its absence queries are joins), so every touched
    /// entry takes the delta path: nothing is rematerialized.
    #[test]
    fn maintained_joins_match_recompute_over_delta_sequences(
        deltas in prop::collection::vec(prop::collection::vec(arb_join_op(), 1..6), 1..5),
    ) {
        let _fp = FailScenario::setup();
        let store = movies_store(10);
        let snapshot = store.snapshot();
        let profile = join_profile(&snapshot);
        let initial = parse_query("select title from MOVIE").unwrap();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let mut maintained = Personalizer::serving(Arc::clone(&store))
            .with_maintenance(maintainer.registry());
        let request = || {
            PersonalizeRequest::query(&profile, &initial)
                .criterion(SelectionCriterion::TopK(6))
                .algorithm(AnswerAlgorithm::Ppa)
        };
        maintained.run(request()).unwrap();
        let registered = maintainer.registry().len() as u64;
        prop_assert!(registered >= 6, "warmup registers every selected preference");

        let movies = rows_of(&snapshot, "MOVIE");
        let mut live = JOINED.map(|rel| rows_of(&snapshot, rel));
        for ops in deltas {
            let delta = join_delta(&ops, &movies, &mut live);
            if delta.is_empty() {
                continue;
            }
            let (epoch, _, outcome) = maintainer.publish(&delta).unwrap();
            prop_assert_eq!(outcome.rematerialized, 0, "{:?}", delta);
            prop_assert_eq!(outcome.dropped + outcome.stale, 0);
            prop_assert_eq!(outcome.patched + outcome.carried, registered);
            prop_assert!(outcome.patched > 0, "every delta touches a joined entry");

            let got = maintained.run(request()).unwrap();
            prop_assert_eq!(
                got.report.ppa_stats.map(|s| s.parameterized_queries),
                Some(0),
                "steady-state maintained run must execute zero preference queries"
            );
            let expect = Personalizer::shared(Arc::clone(&epoch)).run(request()).unwrap();
            prop_assert_eq!(
                &got.report.answer,
                &expect.report.answer,
                "maintained answer != recompute after {:?}",
                delta
            );
        }
    }
}

/// An execution fault during a delta evaluation makes that entry
/// rematerialize, or drop when the rebuild faults too; no entry is left
/// half-merged. Seeded chaos on the scan and index-join sites hits
/// insert, delete and re-check evaluations alike. After each faulted
/// publish the next read rebuilds exactly the dropped entries and
/// matches a recompute byte for byte.
#[cfg(feature = "failpoints")]
#[test]
fn faulted_delta_evaluations_fall_back_without_half_merging() {
    use qp_storage::chaos::ChaosPlan;
    use qp_storage::failpoint;

    let mut totals = qp_core::MaintOutcome::default();
    for seed in 1..=12u64 {
        let _fp = FailScenario::setup();
        let store = movies_store(10);
        let snapshot = store.snapshot();
        let profile = join_profile(&snapshot);
        let initial = parse_query("select title from MOVIE").unwrap();
        let maintainer = Maintainer::new(Arc::clone(&store));
        let mut maintained = Personalizer::serving(Arc::clone(&store))
            .with_maintenance(maintainer.registry());
        let request = || {
            PersonalizeRequest::query(&profile, &initial)
                .criterion(SelectionCriterion::TopK(6))
                .algorithm(AnswerAlgorithm::Ppa)
        };
        maintained.run(request()).unwrap();
        let registered = maintainer.registry().len() as u64;

        // Every evaluation kind: a tag joining an existing movie, a
        // delete leaving movie 1 its other genre, a tid delete, and a
        // new DIRECTED link.
        let delta = DbDelta::new()
            .insert("GENRE", vec![Value::Int(1), Value::str("musical")])
            .delete("GENRE", vec![Value::Int(6), Value::str("comedy")])
            .delete("MOVIE", vec![Value::Int(4), Value::str("Heat"), Value::Int(1995)])
            .insert("DIRECTED", vec![Value::Int(7), Value::Int(1)]);
        let plan = ChaosPlan::new(seed).error("exec.scan", 2500).error("exec.index_join", 2500);
        plan.arm();
        let published = maintainer.publish(&delta);
        failpoint::clear();
        let (epoch, _, outcome) = published.unwrap();
        assert_eq!(
            outcome.patched + outcome.carried + outcome.rematerialized + outcome.dropped,
            registered,
            "seed {seed}: every entry has exactly one outcome"
        );
        totals.patched += outcome.patched;
        totals.rematerialized += outcome.rematerialized;
        totals.dropped += outcome.dropped;

        let got = maintained.run(request()).unwrap();
        assert_eq!(
            got.report.ppa_stats.map(|s| s.parameterized_queries),
            Some(outcome.dropped as usize),
            "seed {seed}: the next read rebuilds exactly the dropped entries"
        );
        let expect = Personalizer::shared(Arc::clone(&epoch)).run(request()).unwrap();
        assert_eq!(got.report.answer, expect.report.answer, "seed {seed}: half-merged entry");
    }
    assert!(totals.rematerialized > 0, "no fault fell back to rematerialization: {totals:?}");
    assert!(totals.dropped > 0, "no fault dropped an entry: {totals:?}");
    assert!(totals.patched > 0, "chaos left no delta path intact: {totals:?}");
}
