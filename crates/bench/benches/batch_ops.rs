//! Vectorized operator microbenchmarks: one query per operator shape on
//! the batch engine. The derived-table join forces the hash-join path (a
//! bare base-relation key would take the index join).

use criterion::{criterion_group, criterion_main, Criterion};
use qp_bench::{bench_db, Scale};
use qp_exec::Engine;
use qp_sql::parse_query;

fn batch_ops(c: &mut Criterion) {
    let db = bench_db(Scale::Small);
    let engine = Engine::new();

    let cases = [
        ("scan_filter", "select title from MOVIE where year >= 1990"),
        (
            "scan_filter_compound",
            "select title, year from MOVIE where year >= 1970 and duration < 120",
        ),
        (
            "hash_join_derived",
            "select M.title from MOVIE M, \
             (select mid from GENRE where genre = 'drama') G where M.mid = G.mid",
        ),
        (
            "sort_limit",
            "select title, year from MOVIE where year >= 1960 order by year desc, title limit 100",
        ),
        (
            "distinct_union",
            "select distinct year from MOVIE where year < 1960 \
             union all select distinct year from MOVIE where year >= 1990",
        ),
    ];
    let mut g = c.benchmark_group("batch_ops");
    for (name, sql) in cases {
        let q = parse_query(sql).unwrap();
        g.bench_function(name, |b| b.iter(|| engine.execute(&db, &q).unwrap()));
    }
    g.finish();
}

criterion_group!(benches, batch_ops);
criterion_main!(benches);
