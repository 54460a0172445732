//! Property test: a personalized query's text fixes its answer. One
//! long-lived `Personalizer` — warm plan and preference caches, and in
//! the second leg a maintenance registry while deltas land — answers
//! every request of a random sequence byte for byte as a personalizer
//! built fresh for that request does.
//!
//! The profiles come from a small pool whose elastic preferences share
//! their centers and widths but differ in peak and join degree, so that
//! different users' preference queries differ only in their degree
//! parameters. Requests vary the user, the query, SPA and PPA, the
//! ranking kind and L.

use std::sync::Arc;

use personalized_queries::core::{
    AnswerAlgorithm, Maintainer, MixedKind, PersonalizationOptions, PersonalizeRequest,
    PersonalizedAnswer, Personalizer, Profile, Ranking, RankingKind, SelectionCriterion,
};
use personalized_queries::datagen::{self, ImdbScale};
use personalized_queries::storage::{Database, DbDelta, SnapshotStore, Value};
use proptest::prelude::*;

const QUERIES: [&str; 3] = [
    "select title from MOVIE",
    "select title, year from MOVIE where year >= 1980",
    "select M.title from MOVIE M where M.duration < 140",
];

const POOL: usize = 6;

fn store() -> Arc<SnapshotStore> {
    let db = datagen::generate(ImdbScale {
        movies: 300,
        ..ImdbScale::small()
    });
    db.warm_statistics();
    Arc::new(SnapshotStore::new(db))
}

/// Profile `i` of the pool. Every user holds the same preferences with
/// the same elastic centers and widths and the same exact degrees; the
/// elastic peaks and the join degree of the path to THEATRE vary with
/// `i`. The peaks stay in bands that keep the preferences' criticality
/// order, so every user's selection lists them in the same order and
/// their preference queries differ in the degree parameters alone.
fn pool_profile(db: &Database, i: usize) -> Profile {
    let peak = [0.85, 0.9, 0.95][i % 3];
    let dislike = [0.75, 0.8][i % 2];
    let join = [0.5, 0.8][i / 3];
    let dsl = format!(
        "doi(MOVIE.duration = around(120, 30)) = (e({peak}), 0)\n\
         doi(MOVIE.year = around(1960, 20)) = (e(-{dislike}), 0)\n\
         doi(THEATRE.ticket = around(9, 4)) = (e(0.6), e(-0.2, 2))\n\
         doi(GENRE.genre = 'drama') = (0.3, 0)\n\
         doi(GENRE.genre = 'horror') = (-0.6, 0.3)\n\
         doi(MOVIE.mid = GENRE.mid) = (0.8)\n\
         doi(MOVIE.mid = PLAY.mid) = ({join})\n\
         doi(PLAY.tid = THEATRE.tid) = (1)\n"
    );
    Profile::parse(db.catalog(), &dsl).unwrap()
}

/// One request: (profile, query, ranking kind, SPA?, L).
type Request = (usize, usize, usize, bool, usize);

fn options(&(_, _, kind, spa, l): &Request) -> PersonalizationOptions {
    PersonalizationOptions {
        criterion: SelectionCriterion::TopK(5),
        l,
        algorithm: if spa {
            AnswerAlgorithm::Spa
        } else {
            AnswerAlgorithm::Ppa
        },
        ranking: Ranking::new(RankingKind::ALL[kind], MixedKind::CountWeighted),
        ..Default::default()
    }
}

/// An answer with every degree as its bit pattern.
fn bytes(a: &PersonalizedAnswer) -> String {
    let tuples: Vec<_> = a
        .tuples
        .iter()
        .map(|t| (t.tuple_id, &t.row, t.doi.to_bits(), &t.satisfied, &t.failed))
        .collect();
    format!("{:?} {tuples:?}", a.columns)
}

/// The delta of write `n`: a new drama around two hours long, and the
/// removal of the one written two writes earlier.
fn delta(n: i64) -> DbDelta {
    let movie = |n: i64| {
        let mid = 900_000 + n;
        let row = vec![
            Value::Int(mid),
            Value::str(format!("new-{n}")),
            Value::Int(1990 + n),
            Value::Int(110 + n),
        ];
        (row, vec![Value::Int(mid), Value::str("drama")])
    };
    let (m, g) = movie(n);
    let mut d = DbDelta::new().insert("MOVIE", m).insert("GENRE", g);
    if n >= 2 {
        let (m, g) = movie(n - 2);
        d = d.delete("MOVIE", m).delete("GENRE", g);
    }
    d
}

/// Runs `requests` through `long_lived` and through a fresh personalizer
/// each, publishing a delta through `maintainer` before every request
/// flagged in `writes`.
fn check(
    store: &Arc<SnapshotStore>,
    mut long_lived: Personalizer<'static>,
    maintainer: Option<&Maintainer>,
    requests: &[Request],
    writes: &[bool],
) -> Result<(), String> {
    long_lived.set_plan_cache_enabled(true);
    long_lived.set_preference_cache_enabled(true);
    let db = store.snapshot();
    let profiles: Vec<Profile> = (0..POOL).map(|i| pool_profile(&db, i)).collect();
    let mut written = 0;
    for (r, write) in requests
        .iter()
        .zip(writes.iter().chain(std::iter::repeat(&false)))
    {
        if let (Some(m), true) = (maintainer, write) {
            m.publish(&delta(written)).unwrap();
            written += 1;
        }
        let run = |p: &mut Personalizer<'_>| {
            let request = PersonalizeRequest::sql(&profiles[r.0], QUERIES[r.1]).options(options(r));
            p.run(request).unwrap().report.answer
        };
        let got = run(&mut long_lived);
        let want = run(&mut Personalizer::serving(Arc::clone(store)));
        let (got, want) = (bytes(&got), bytes(&want));
        if got != want {
            return Err(format!(
                "request {r:?} after {written} writes:\n{got}\n!= fresh\n{want}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn a_long_lived_personalizer_answers_like_a_fresh_one(
        requests in prop::collection::vec(
            (0..POOL, 0usize..3, 0usize..3, any::<bool>(), 1usize..3),
            4..12,
        ),
        writes in prop::collection::vec(0u8..4, 0..12),
    ) {
        let plain = store();
        check(&plain, Personalizer::serving(Arc::clone(&plain)), None, &requests, &[])?;

        let maintained = store();
        let maintainer = Maintainer::new(Arc::clone(&maintained));
        let long_lived =
            Personalizer::serving(Arc::clone(&maintained)).with_maintenance(maintainer.registry());
        let writes: Vec<bool> = writes.iter().map(|w| *w == 0).collect();
        check(&maintained, long_lived, Some(&maintainer), &requests, &writes)?;
    }
}
