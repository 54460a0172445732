//! SPA — Simply Personalized Answers (§5, Example 6).
//!
//! The top-K preferences are integrated into the initial query as a union
//! of per-preference sub-queries; the union is grouped by the initial
//! query's projection, groups satisfying fewer than L preferences are
//! dropped (`HAVING count(*) >= L`), and the survivors are ranked by a
//! user-defined aggregate ranking function over the collected degrees.
//! The whole thing executes as *one SQL statement*, and that statement's
//! text names everything it computes: the ranking is the aggregate of
//! the request's [`crate::RankingKind`], and elastic degrees carry their
//! parameters ([`crate::answer::degree`]).
//!
//! Shortcomings the paper points out (and PPA addresses): the answer is
//! not self-explanatory, ranking can only use the satisfied preferences,
//! 1–n absence preferences cost a `NOT IN` sub-query each, and no tuple
//! is returned before the entire statement finishes.

use qp_exec::{Engine, ExecError, QueryGuard};
use qp_sql::{builder, Expr, Query, SelectItem};
use qp_storage::Database;

use crate::answer::degree;
use crate::answer::subquery::{classify, satisfaction_select};
use crate::answer::{PersonalizedAnswer, PersonalizedTuple};
use crate::error::PrefError;
use crate::profile::Profile;
use crate::ranking::Ranking;
use crate::select::SelectedPreference;

/// Runs SPA: builds the personalized SQL statement, executes it, and
/// returns the ranked answer. `l` is the minimum number of the K selected
/// preferences a tuple must satisfy. `engine` must come from
/// [`degree::engine`], which builds in the functions the statement calls.
pub fn spa(
    db: &Database,
    engine: &Engine,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
) -> Result<PersonalizedAnswer, PrefError> {
    spa_guarded(db, engine, initial, profile, selected, l, ranking, &QueryGuard::unlimited())
}

/// [`spa`] under a [`QueryGuard`]. Unlike PPA, SPA is a single statement
/// and cannot degrade to a partial answer: a guard trip (or an injected
/// fault at the `spa.execute` site) fails the whole run with a typed
/// error. [`crate::Personalizer`] turns that failure into a fallback to
/// the unpersonalized query when
/// [`crate::PersonalizationOptions::fallback_to_original`] is set.
#[allow(clippy::too_many_arguments)]
pub fn spa_guarded(
    db: &Database,
    engine: &Engine,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
    guard: &QueryGuard,
) -> Result<PersonalizedAnswer, PrefError> {
    let started = std::time::Instant::now();
    let tracer = engine.tracer().clone();
    let mut run_span = tracer.span("spa.run");
    run_span.attr("k", selected.len());
    run_span.attr("l", l);
    // Rewriting: classification plus assembly of the single UNION ALL /
    // HAVING / ranking-aggregate statement.
    let build_span = tracer.span("spa.build");
    let query = build_spa_query(db, initial, profile, selected, l, ranking)?;
    build_span.finish();
    qp_storage::failpoint::check("spa.execute")
        .map_err(|msg| PrefError::from(ExecError::Fault(msg)))?;
    let exec_span = tracer.span("spa.execute");
    let (rs, _stats) = engine.execute_with_guard(db, &query, guard)?;
    exec_span.finish();
    let metrics = engine.metrics();
    metrics.counter("spa.runs").inc();
    metrics.counter("spa.answer_tuples").add(rs.rows.len() as u64);
    metrics.histogram("spa.total_us").observe(started.elapsed());
    run_span.attr("rows", rs.rows.len());
    let ncols = rs.columns.len() - 1; // last column is the score
    let tuples = rs
        .rows
        .into_iter()
        .map(|mut row| {
            let doi = row.pop().and_then(|v| v.as_f64()).unwrap_or(0.0);
            PersonalizedTuple { tuple_id: None, row, doi, satisfied: vec![], failed: vec![] }
        })
        .collect();
    let columns = initial_column_names(initial, ncols);
    Ok(PersonalizedAnswer { columns, tuples })
}

/// Builds (without executing) the single personalized SQL statement —
/// exposed separately so tests and benchmarks can inspect it. The text
/// alone determines the answer: any engine from [`degree::engine`]
/// executes it to [`spa`]'s rows and scores.
pub fn build_spa_query(
    db: &Database,
    initial: &Query,
    profile: &Profile,
    selected: &[SelectedPreference],
    l: usize,
    ranking: &Ranking,
) -> Result<Query, PrefError> {
    let selects = initial.selects();
    if selects.len() != 1 {
        return Err(PrefError::UnsupportedQuery("initial query must be a single SELECT".into()));
    }
    let initial_select = selects[0];
    if selected.is_empty() {
        return Err(PrefError::InvalidCriterion(
            "SPA requires at least one selected preference".into(),
        ));
    }
    if l == 0 || l > selected.len() {
        return Err(PrefError::InvalidCriterion(format!(
            "L = {l} outside 1..=K ({} selected)",
            selected.len()
        )));
    }
    let catalog = db.catalog();
    let infos = classify(db, profile, selected);

    // canonical names c0.. for the initial projection inside sub-queries
    let base_items: Vec<Expr> = initial_select
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => Ok(expr.clone()),
            SelectItem::Wildcard => Err(PrefError::UnsupportedQuery(
                "SELECT * cannot be personalized; project explicit columns".into(),
            )),
        })
        .collect::<Result<_, _>>()?;

    let mut branches = Vec::with_capacity(selected.len());
    for (sp, info) in selected.iter().zip(&infos) {
        let items_template = base_items.clone();
        let sub = satisfaction_select(
            catalog,
            initial_select,
            profile,
            sp,
            info,
            &move |_anchor: &str, degree: Expr| {
                let mut items: Vec<SelectItem> = items_template
                    .iter()
                    .enumerate()
                    .map(|(i, e)| builder::item_as(e.clone(), format!("c{i}")))
                    .collect();
                items.push(builder::item_as(degree, "degree"));
                items.push(builder::item_as(builder::int(info.index as i64), "pref"));
                items
            },
        )?;
        branches.push(sub);
    }
    let union = builder::union_all(branches);

    // outer: group by the projection, keep groups with >= L prefs, rank
    let mut outer = builder::SelectBuilder::new();
    for i in 0..base_items.len() {
        outer = outer.expr(builder::bare_col(format!("c{i}")));
    }
    outer = outer
        .expr_as(degree::rank(ranking.kind, builder::bare_col("degree")), "qp_score")
        .from(qp_sql::TableRef::derived(union, "qp_u"));
    for i in 0..base_items.len() {
        outer = outer.group_by(builder::bare_col(format!("c{i}")));
    }
    let outer = outer.having(builder::binary(
        builder::count_star(),
        qp_sql::BinaryOp::Ge,
        builder::int(l as i64),
    ));
    let mut query = outer.build_query();
    query.order_by.push(qp_sql::OrderByItem {
        expr: builder::bare_col("qp_score"),
        desc: true,
    });
    Ok(query)
}

fn initial_column_names(initial: &Query, ncols: usize) -> Vec<String> {
    let select = initial.selects()[0];
    let mut names = Vec::with_capacity(ncols);
    for item in &select.items {
        if let SelectItem::Expr { expr, alias } = item {
            let name = alias.clone().unwrap_or_else(|| match expr {
                Expr::Column { name, .. } => name.clone(),
                other => other.to_string(),
            });
            names.push(name);
        }
    }
    while names.len() < ncols {
        names.push(format!("c{}", names.len()));
    }
    names.truncate(ncols);
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PersonalizationGraph;
    use crate::ranking::{MixedKind, RankingKind};
    use crate::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
    use qp_sql::parse_query;
    use qp_storage::{Attribute, DataType, Value};

    /// Small movies DB with W. Allen comedies, a musical, and old films.
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
        let movies = [
            (1, "Annie Hall", 1977),
            (2, "Manhattan", 1979),
            (3, "Zelig", 1983),
            (4, "Heat", 1995),
            (5, "Chicago", 2002),
        ];
        for (mid, t, y) in movies {
            db.insert_by_name("MOVIE", vec![Value::Int(mid), Value::str(t), Value::Int(y)])
                .unwrap();
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

    fn run_spa(l: usize) -> PersonalizedAnswer {
        let db = movies_db();
        let p = als_profile(&db);
        let g = PersonalizationGraph::build(&p);
        let initial = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
        let selected = fakecrit(&g, &qc, SelectionCriterion::TopK(3)).unwrap();
        assert_eq!(selected.len(), 3);
        let engine = degree::engine();
        let ranking = Ranking::new(RankingKind::Inflationary, MixedKind::CountWeighted);
        spa(&db, &engine, &initial, &p, &selected, l, &ranking).unwrap()
    }

    #[test]
    fn example6_l2_answer() {
        // Preferences: W. Allen (presence, 0.72), year<1980 (1-1 absence,
        // d⁺=0), musical (1-n absence, d⁺=0.56).
        // Satisfaction counts: Annie Hall {Allen, ¬musical}=2,
        // Manhattan {Allen, ¬musical}=2, Zelig {Allen, ¬musical, ≥1980}=3,
        // Heat {¬musical, ≥1980}=2, Chicago {≥1980}=1.
        let a = run_spa(2);
        let titles: Vec<String> = a.tuples.iter().map(|t| t.row[0].to_string()).collect();
        assert!(titles.contains(&"Annie Hall".to_string()));
        assert!(titles.contains(&"Zelig".to_string()));
        assert!(!titles.contains(&"Chicago".to_string()), "Chicago satisfies only 1");
        assert_eq!(a.len(), 4);
        // top score: W. Allen (0.72) + musical-absence (0.56) under the
        // inflationary combination (the year-absence degree of 0
        // contributes nothing) — Annie Hall, Manhattan, and Zelig tie.
        let expect = 1.0 - (1.0 - 0.72_f64) * (1.0 - 0.56);
        for t in &a.tuples[..3] {
            assert!((t.doi - expect).abs() < 1e-9, "{t:?}");
        }
        // Heat satisfies musical-absence (0.56) and year-absence (0) only
        let heat = a.tuples.iter().find(|t| t.row[0] == Value::str("Heat")).unwrap();
        assert!((heat.doi - 0.56).abs() < 1e-9);
        // scores non-increasing
        for w in a.tuples.windows(2) {
            assert!(w[0].doi >= w[1].doi - 1e-12);
        }
    }

    #[test]
    fn l1_keeps_everything_satisfying_one() {
        let a = run_spa(1);
        assert_eq!(a.len(), 5); // every movie satisfies at least one
    }

    #[test]
    fn l3_only_zelig() {
        let a = run_spa(3);
        let titles: Vec<String> = a.tuples.iter().map(|t| t.row[0].to_string()).collect();
        assert_eq!(titles, vec!["Zelig"]);
    }

    #[test]
    fn invalid_l_rejected() {
        let db = movies_db();
        let p = als_profile(&db);
        let g = PersonalizationGraph::build(&p);
        let initial = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
        let selected = fakecrit(&g, &qc, SelectionCriterion::TopK(3)).unwrap();
        let engine = degree::engine();
        let r = Ranking::default();
        assert!(spa(&db, &engine, &initial, &p, &selected, 0, &r).is_err());
        assert!(spa(&db, &engine, &initial, &p, &selected, 4, &r).is_err());
        assert!(spa(&db, &engine, &initial, &p, &[], 1, &r).is_err());
    }

    #[test]
    fn built_sql_is_one_statement() {
        let db = movies_db();
        let p = als_profile(&db);
        let g = PersonalizationGraph::build(&p);
        let initial = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
        let selected = fakecrit(&g, &qc, SelectionCriterion::TopK(3)).unwrap();
        let q = build_spa_query(&db, &initial, &p, &selected, 2, &Ranking::default()).unwrap();
        let sql = q.to_string();
        assert!(sql.contains("UNION ALL"), "{sql}");
        assert!(sql.contains("HAVING count(*) >= 2"), "{sql}");
        assert!(sql.contains("ORDER BY qp_score DESC"), "{sql}");
        // the statement round-trips through the parser
        let reparsed = qp_sql::parse_query(&sql).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn ranking_kind_changes_scores() {
        let db = movies_db();
        let p = als_profile(&db);
        let g = PersonalizationGraph::build(&p);
        let initial = parse_query("select title from MOVIE").unwrap();
        let qc = QueryContext::from_query(db.catalog(), &initial).unwrap();
        let selected = fakecrit(&g, &qc, SelectionCriterion::TopK(3)).unwrap();
        let mut scores = Vec::new();
        let engine = degree::engine();
        for kind in RankingKind::ALL {
            let r = Ranking::new(kind, MixedKind::CountWeighted);
            let a = spa(&db, &engine, &initial, &p, &selected, 2, &r).unwrap();
            let zelig = a
                .tuples
                .iter()
                .find(|t| t.row[0] == Value::str("Zelig"))
                .expect("zelig present")
                .doi;
            scores.push(zelig);
        }
        // inflationary ≥ dominant ≥ reserved for the same degree set
        assert!(scores[0] >= scores[1] && scores[1] >= scores[2], "{scores:?}");
    }
}
