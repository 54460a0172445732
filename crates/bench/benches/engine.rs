//! Execution-engine microbenchmarks: the operator costs underneath SPA
//! and PPA (scan+filter, index join, grouping, union, NOT IN, and the
//! prepared row-id set fetch PPA's emission bursts ride on).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use qp_bench::{bench_db, Scale};
use qp_exec::{Engine, ExecStats};
use qp_sql::parse_query;

fn engine_benches(c: &mut Criterion) {
    let db = bench_db(Scale::Small);
    let engine = Engine::new();

    let mut g = c.benchmark_group("engine");
    g.bench_function("scan_filter", |b| {
        let q = parse_query("select title from MOVIE where year >= 1990").unwrap();
        b.iter(|| engine.execute(&db, &q).unwrap())
    });
    g.bench_function("index_join_2way", |b| {
        let q = parse_query(
            "select M.title from MOVIE M, GENRE G where M.mid = G.mid and G.genre = 'drama'",
        )
        .unwrap();
        b.iter(|| engine.execute(&db, &q).unwrap())
    });
    g.bench_function("index_join_5way", |b| {
        let q = parse_query(
            "select T.name from THEATRE T, PLAY P, MOVIE M, DIRECTED D, DIRECTOR DI \
             where T.tid = P.tid and P.mid = M.mid and M.mid = D.mid and D.did = DI.did \
             and DI.name = 'W. Allen'",
        )
        .unwrap();
        b.iter(|| engine.execute(&db, &q).unwrap())
    });
    g.bench_function("group_by_having", |b| {
        let q = parse_query(
            "select genre, count(*) n from GENRE group by genre having count(*) >= 5 order by n desc",
        )
        .unwrap();
        b.iter(|| engine.execute(&db, &q).unwrap())
    });
    g.bench_function("union_all_3", |b| {
        let q = parse_query(
            "select title from MOVIE where year < 1960 \
             union all select title from MOVIE where year >= 1990 \
             union all select title from MOVIE where duration > 150",
        )
        .unwrap();
        b.iter(|| engine.execute(&db, &q).unwrap())
    });
    g.bench_function("not_in_subquery", |b| {
        let q = parse_query(
            "select title from MOVIE M where M.mid not in \
             (select G.mid from GENRE G where G.genre = 'drama')",
        )
        .unwrap();
        b.iter(|| engine.execute(&db, &q).unwrap())
    });
    g.bench_function("prepared_rowid_set_fetch", |b| {
        let q = parse_query("select M.title from MOVIE M where M.rowid = 0").unwrap();
        let mut prepared = engine.prepare(&db, &q).unwrap();
        let rel = db.catalog().relation_by_name("MOVIE").unwrap().id;
        let mut stats = ExecStats::default();
        let mut tid = 0u64;
        b.iter(|| {
            // an 8-tuple emission burst
            tid = (tid + 8) % 1000;
            prepared.rebind_rowid_set(rel, &Arc::new((tid..tid + 8).collect()));
            engine.execute_prepared_rows(&db, &prepared, &mut stats)
        })
    });
    g.bench_function("parse_and_plan", |b| {
        b.iter(|| {
            let q = parse_query(
                "select M.title from MOVIE M, GENRE G where M.mid = G.mid and G.genre = 'drama'",
            )
            .unwrap();
            engine.prepare(&db, &q).unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = engine_benches
}
criterion_main!(benches);
