//! Sub-query construction for SPA and PPA (§5).
//!
//! Each selected preference maps to a sub-query extending the initial
//! query by "an appropriate qualification involving the participating
//! preferences" (Example 6). The kind of sub-query depends on the
//! preference type:
//!
//! * **presence** — joins of the path plus the satisfaction condition;
//! * **1–1 absence** — same, with the condition's operator negated;
//! * **1–n absence** — a `NOT IN` sub-query excluding tuples related to
//!   the disliked values (the join path fans out, so inline negation
//!   would be wrong).
//!
//! Elastic preferences are translated into range conditions (`BETWEEN`
//! over the elastic support); their per-tuple degree is the `qp_doi`
//! built-in with every parameter of the preference in the text
//! ([`crate::answer::degree`]).

use qp_sql::{builder, Expr, Query, Select, SelectItem, TableRef};
use qp_storage::{Catalog, Database, Value};
use qp_storage::histogram::CmpOp;
use qp_storage::schema::JoinMultiplicity;

use crate::answer::degree;
use crate::error::PrefError;
use crate::preference::CompareOp;
use crate::profile::Profile;
use crate::select::SelectedPreference;

/// How a preference integrates into the query (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrationKind {
    /// Satisfaction region testable by extending the query.
    Presence,
    /// Absence preference whose path multiplies 1–1: inline negation.
    Absence11,
    /// Absence preference over a fanning-out path: `NOT IN` exclusion.
    Absence1N,
}

/// Pre-computed integration data for one selected preference.
#[derive(Debug, Clone)]
pub struct PrefQueryInfo {
    /// Position in the selected-preference list.
    pub index: usize,
    /// Integration kind.
    pub kind: IntegrationKind,
    /// Satisfaction degree peak (`d⁺`, scaled by the join-degree product).
    pub d_plus: f64,
    /// Failure degree (`d⁻` ≤ 0, scaled).
    pub d_minus: f64,
    /// Estimated selectivity of the satisfaction region (used by PPA to
    /// order presence queries).
    pub sat_selectivity: f64,
    /// Estimated selectivity of the failure region (orders absence
    /// queries).
    pub fail_selectivity: f64,
}

/// Builds integration info for every selected preference.
pub fn classify(
    db: &Database,
    profile: &Profile,
    selected: &[SelectedPreference],
) -> Vec<PrefQueryInfo> {
    let catalog = db.catalog();
    selected
        .iter()
        .enumerate()
        .map(|(i, sp)| {
            let sel = sp.sel(profile);
            let kind = if sel.is_presence() {
                IntegrationKind::Presence
            } else if path_is_to_one(catalog, profile, sp) {
                IntegrationKind::Absence11
            } else {
                IntegrationKind::Absence1N
            };
            let (sat_selectivity, fail_selectivity) = estimate_selectivities(db, profile, sp);
            PrefQueryInfo {
                index: i,
                kind,
                d_plus: sp.d_plus_peak(profile),
                d_minus: sp.d_minus(profile),
                sat_selectivity,
                fail_selectivity,
            }
        })
        .collect()
}

/// Whether every join along the path is to-one (the 1–1 / 1–n distinction
/// of §5).
fn path_is_to_one(catalog: &Catalog, profile: &Profile, sp: &SelectedPreference) -> bool {
    sp.joins.iter().all(|j| {
        // a non-join id in the path would be a selection bug; treating the
        // step as to-many (the conservative 1–n classification) is safe
        profile.get(*j).as_join().is_some_and(|jp| {
            catalog.join_multiplicity(jp.from, jp.to) == JoinMultiplicity::ToOne
        })
    })
}

/// Histogram-based selectivity of the preference's satisfaction and
/// failure regions (on the condition attribute alone; join fan-out is not
/// modelled, which is what "simple histograms" gives the paper too).
fn estimate_selectivities(
    db: &Database,
    profile: &Profile,
    sp: &SelectedPreference,
) -> (f64, f64) {
    let sel = sp.sel(profile);
    let hist = db.histogram(sel.attr);
    let sat_of_condition = if sel.doi.is_elastic() {
        let e = sel.satisfaction_elastic();
        let (lo, hi) = e.support();
        hist.selectivity_between(&Value::Float(lo), &Value::Float(hi))
    } else {
        let op = match sel.condition.op {
            CompareOp::Eq => CmpOp::Eq,
            CompareOp::Neq => CmpOp::Ne,
            CompareOp::Lt => CmpOp::Lt,
            CompareOp::Le => CmpOp::Le,
            CompareOp::Gt => CmpOp::Gt,
            CompareOp::Ge => CmpOp::Ge,
        };
        hist.selectivity(op, &sel.condition.value)
    };
    if sel.is_presence() {
        (sat_of_condition, 1.0 - sat_of_condition)
    } else {
        (1.0 - sat_of_condition, sat_of_condition)
    }
}

/// The binding name of the preference's anchor relation within the
/// query's FROM list.
pub fn anchor_binding(
    catalog: &Catalog,
    select: &Select,
    sp: &SelectedPreference,
) -> Result<String, PrefError> {
    for tref in &select.from {
        if let TableRef::Relation { name, alias } = tref {
            let rel = catalog.relation_by_name(name)?;
            if rel.id == sp.anchor {
                return Ok(alias.clone().unwrap_or_else(|| name.clone()));
            }
        }
    }
    Err(PrefError::UnsupportedQuery(format!(
        "selected preference anchored at relation {:?} not in the query",
        sp.anchor
    )))
}

/// Extends `select` with the preference's join path, returning the
/// binding name holding the condition attribute. Fresh aliases `qp<i>_…`
/// are used for the appended relations.
pub fn append_path(
    catalog: &Catalog,
    select: &mut Select,
    profile: &Profile,
    sp: &SelectedPreference,
    alias_prefix: &str,
) -> Result<String, PrefError> {
    let mut prev = anchor_binding(catalog, select, sp)?;
    for (step, j) in sp.joins.iter().enumerate() {
        let jp = profile.get(*j).as_join().ok_or_else(|| {
            PrefError::InvalidCriterion(format!(
                "path step {step} of the selected preference is not a join preference"
            ))
        })?;
        let from_name = &catalog.relation(jp.from.rel).attributes[jp.from.idx as usize].name;
        let to_rel = catalog.relation(jp.to.rel);
        let to_name = &to_rel.attributes[jp.to.idx as usize].name;
        let alias = format!("{alias_prefix}{step}");
        select.from.push(TableRef::aliased(to_rel.name.clone(), alias.clone()));
        let cond = builder::eq(builder::col(prev, from_name), builder::col(&alias, to_name));
        merge_filter(select, cond);
        prev = alias;
    }
    Ok(prev)
}

/// ANDs a predicate into a select's WHERE clause.
pub fn merge_filter(select: &mut Select, expr: Expr) {
    select.where_clause = match select.where_clause.take() {
        Some(w) => Some(w.and(expr)),
        None => Some(expr),
    };
}

/// Builds the satisfaction-region sub-select for a preference:
/// the initial query extended with the path joins and the satisfaction
/// condition (or, for 1–n absence, a `NOT IN` exclusion). `projection`
/// supplies the output items given the anchor binding and the degree
/// expression.
pub fn satisfaction_select(
    catalog: &Catalog,
    initial: &Select,
    profile: &Profile,
    sp: &SelectedPreference,
    info: &PrefQueryInfo,
    projection: &dyn Fn(&str, Expr) -> Vec<SelectItem>,
) -> Result<Select, PrefError> {
    let sel = sp.sel(profile);
    let attr_name = |a: qp_storage::AttrId| -> String {
        catalog.relation(a.rel).attributes[a.idx as usize].name.clone()
    };
    let anchor = anchor_binding(catalog, initial, sp)?;
    let mut s = initial.clone();
    s.distinct = true;
    match info.kind {
        IntegrationKind::Presence | IntegrationKind::Absence11 => {
            let prefix = format!("qp{}_", info.index);
            let cond_binding = append_path(catalog, &mut s, profile, sp, &prefix)?;
            let cond = sel.satisfaction_expr(&cond_binding, &attr_name(sel.attr));
            merge_filter(&mut s, cond);
            let column = builder::col(&cond_binding, attr_name(sel.attr));
            s.items = projection(&anchor, degree::satisfaction(profile, sp, column));
        }
        IntegrationKind::Absence1N => {
            // inner: anchor rowids related to the disliked values
            let anchor_rel = catalog.relation(sp.anchor);
            let inner_alias = format!("qpx{}", info.index);
            let mut inner = Select {
                distinct: false,
                items: vec![builder::item(builder::col(&inner_alias, "rowid"))],
                from: vec![TableRef::aliased(anchor_rel.name.clone(), inner_alias.clone())],
                where_clause: None,
                group_by: vec![],
                having: None,
            };
            // rebuild the path against the inner anchor
            let inner_sp = SelectedPreference {
                anchor: sp.anchor,
                joins: sp.joins.clone(),
                selection: sp.selection,
                join_degree: sp.join_degree,
                criticality: sp.criticality,
            };
            // append_path resolves the anchor by relation id; the inner
            // select has exactly one matching entry
            let prefix = format!("qpi{}_", info.index);
            let cond_binding = append_path(catalog, &mut inner, profile, &inner_sp, &prefix)?;
            let cond = sel.failure_expr(&cond_binding, &attr_name(sel.attr));
            merge_filter(&mut inner, cond);
            let not_in = builder::not_in_subquery(
                builder::col(&anchor, "rowid"),
                Query::from_select(inner),
            );
            merge_filter(&mut s, not_in);
            let degree = builder::float(info.d_plus);
            s.items = projection(&anchor, degree);
        }
    }
    Ok(s)
}

/// Builds the failure-region ("absence query") sub-select used by PPA for
/// 1–n absence preferences: tuples returned *fail* the preference.
pub fn failure_select(
    catalog: &Catalog,
    initial: &Select,
    profile: &Profile,
    sp: &SelectedPreference,
    info: &PrefQueryInfo,
    projection: &dyn Fn(&str, Expr) -> Vec<SelectItem>,
) -> Result<Select, PrefError> {
    let sel = sp.sel(profile);
    let anchor = anchor_binding(catalog, initial, sp)?;
    let mut s = initial.clone();
    s.distinct = true;
    let prefix = format!("qpf{}_", info.index);
    let cond_binding = append_path(catalog, &mut s, profile, sp, &prefix)?;
    let attr_name = &catalog.relation(sel.attr.rel).attributes[sel.attr.idx as usize].name;
    let cond = sel.failure_expr(&cond_binding, attr_name);
    merge_filter(&mut s, cond);
    let column = builder::col(&cond_binding, attr_name);
    s.items = projection(&anchor, degree::failure(profile, sp, column));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    
    use crate::graph::PersonalizationGraph;
    use crate::select::{fakecrit::fakecrit, QueryContext, SelectionCriterion};
    use qp_sql::parse_query;
    use qp_storage::{Attribute, DataType, Database};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "MOVIE",
            vec![
                Attribute::new("mid", DataType::Int),
                Attribute::new("title", DataType::Text),
                Attribute::new("year", DataType::Int),
                Attribute::new("duration", DataType::Int),
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
        for i in 0..5 {
            db.insert_by_name(
                "MOVIE",
                vec![
                    Value::Int(i),
                    Value::str(format!("m{i}")),
                    Value::Int(1975 + i),
                    Value::Int(90 + 10 * (i % 4)),
                ],
            )
            .unwrap();
        }
        db
    }

    fn profile(db: &Database) -> Profile {
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

    fn selected(db: &Database, p: &Profile) -> Vec<SelectedPreference> {
        let g = PersonalizationGraph::build(p);
        let q = QueryContext::from_query(
            db.catalog(),
            &parse_query("select title from MOVIE").unwrap(),
        )
        .unwrap();
        fakecrit(&g, &q, SelectionCriterion::TopK(10)).unwrap()
    }

    #[test]
    fn classification_matches_example6() {
        let db = db();
        let p = profile(&db);
        let sel = selected(&db, &p);
        let infos = classify(&db, &p, &sel);
        // find by description
        let by_desc: Vec<(String, IntegrationKind)> = sel
            .iter()
            .zip(&infos)
            .map(|(s, i)| (s.describe(&p, db.catalog()), i.kind))
            .collect();
        let find = |needle: &str| {
            by_desc
                .iter()
                .find(|(d, _)| d.contains(needle))
                .unwrap_or_else(|| panic!("{needle} not selected: {by_desc:?}"))
                .1
        };
        // P1 (W. Allen via joins): presence
        assert_eq!(find("W. Allen"), IntegrationKind::Presence);
        // P2 (year < 1980 dislike, same relation): 1-1 absence
        assert_eq!(find("year<1980"), IntegrationKind::Absence11);
        // P5 (musical dislike via 1-n join): 1-n absence
        assert_eq!(find("musical"), IntegrationKind::Absence1N);
    }

    #[test]
    fn presence_subquery_matches_paper_q1() {
        let db = db();
        let p = profile(&db);
        let sel = selected(&db, &p);
        let infos = classify(&db, &p, &sel);
        let initial = parse_query("select title from MOVIE").unwrap();
        let i = sel
            .iter()
            .position(|s| s.describe(&p, db.catalog()).contains("W. Allen"))
            .unwrap();
        let s = satisfaction_select(
            db.catalog(),
            initial.selects()[0],
            &p,
            &sel[i],
            &infos[i],
            &|_anchor, degree| {
                vec![
                    builder::item(builder::bare_col("title")),
                    builder::item_as(degree, "degree"),
                ]
            },
        )
        .unwrap();
        let sql = s.to_string();
        assert!(sql.contains("DIRECTED"), "{sql}");
        assert!(sql.contains("DIRECTOR"), "{sql}");
        assert!(sql.contains("= 'W. Allen'"), "{sql}");
        assert!(sql.contains("0.72"), "{sql}");
        // executes without error
        let rs = degree::engine().execute(&db, &Query::from_select(s)).unwrap();
        assert_eq!(rs.columns, vec!["title", "degree"]);
    }

    #[test]
    fn absence11_subquery_negates_operator() {
        let db = db();
        let p = profile(&db);
        let sel = selected(&db, &p);
        let infos = classify(&db, &p, &sel);
        let initial = parse_query("select title from MOVIE").unwrap();
        let i = sel
            .iter()
            .position(|s| s.describe(&p, db.catalog()).contains("year<1980"))
            .unwrap();
        let s = satisfaction_select(
            db.catalog(),
            initial.selects()[0],
            &p,
            &sel[i],
            &infos[i],
            &|_anchor, degree| {
                vec![builder::item(builder::bare_col("title")), builder::item_as(degree, "degree")]
            },
        )
        .unwrap();
        let sql = s.to_string();
        assert!(sql.contains(">= 1980"), "{sql}");
        // degree of satisfying the absence of (year < 1980) is d⁺ = 0
        assert!(sql.contains("0.0"), "{sql}");
        let rs = degree::engine().execute(&db, &Query::from_select(s)).unwrap();
        // movies from 1980 onwards: 1980, 1981 ... mids 5? (1975+i, i<5) → 1980, 1979...
        assert_eq!(rs.len(), 0); // years 1975..1979 — none >= 1980
    }

    #[test]
    fn absence1n_subquery_uses_not_in() {
        let db = db();
        let p = profile(&db);
        let sel = selected(&db, &p);
        let infos = classify(&db, &p, &sel);
        let initial = parse_query("select title from MOVIE").unwrap();
        let i = sel
            .iter()
            .position(|s| s.describe(&p, db.catalog()).contains("musical"))
            .unwrap();
        let s = satisfaction_select(
            db.catalog(),
            initial.selects()[0],
            &p,
            &sel[i],
            &infos[i],
            &|_anchor, degree| {
                vec![builder::item(builder::bare_col("title")), builder::item_as(degree, "degree")]
            },
        )
        .unwrap();
        let sql = s.to_string();
        assert!(sql.contains("NOT IN (SELECT"), "{sql}");
        assert!(sql.contains("'musical'"), "{sql}");
        // degree of satisfying "no musical" is 0.7 · 0.8 (join degree)
        assert!((infos[i].d_plus - 0.56).abs() < 1e-12);
        let rs = degree::engine().execute(&db, &Query::from_select(s)).unwrap();
        assert_eq!(rs.len(), 5); // no GENRE rows at all → nothing excluded
    }

    #[test]
    fn selectivity_ordering_inputs() {
        let db = db();
        let p = profile(&db);
        let sel = selected(&db, &p);
        let infos = classify(&db, &p, &sel);
        for info in &infos {
            assert!((0.0..=1.0).contains(&info.sat_selectivity));
            assert!((0.0..=1.0).contains(&info.fail_selectivity));
        }
    }
}
