//! How a degree becomes SQL, and the engine functions that compute it.
//!
//! Personalization rewrites the user's query (§5): PPA's preference
//! queries project each qualifying tuple's degree, and SPA's one statement
//! ranks its groups with `r(degree)` (Example 6). A constant degree is a
//! float literal. An elastic preference's degree depends on the tuple's
//! attribute value, so the statement calls the `qp_doi` built-in with
//! every parameter of the preference written out as a literal:
//!
//! ```text
//! qp_doi(<column>, <side>, <scale>,
//!        <dT shape>, <dT center>, <dT width>, <dT peak>, <dT plateau>,
//!        <dF shape>, <dF center>, <dF width>, <dF peak>, <dF plateau>)
//! ```
//!
//! * `side` is `'d+'`, the doi in the preference's satisfaction
//!   (`d⁺(v) = max(dT(v), dF(v))`), or `'d-'`, the doi in its failure
//!   (`d⁻(v) = min(dT(v), dF(v))`, §3.3);
//! * `scale` is the join-degree product of the preference's path (§3.2);
//! * each doi component is a shape — `'exact'`, `'triangular'`,
//!   `'trapezoidal'` or `'cosine'` — and its parameters. An exact
//!   component carries its constant as the peak and zeros elsewhere.
//!
//! SPA ranks with one aggregate per [`RankingKind`]:
//! `qp_rank_inflationary`, `qp_rank_dominant` and `qp_rank_reserved`.
//!
//! So the text of a personalized query fixes its answer. Two requests
//! whose degrees or rankings differ send different texts, and nothing
//! keyed by text — the plan cache ([`qp_exec::PlanCache`]), the
//! materialization registry ([`crate::MatRegistry`]) — can hand one
//! request's degrees to another. [`engine`] builds these functions into
//! an engine once, when it constructs it; no function is ever registered
//! on a live engine.
//!
//! The planner binds `qp_doi`'s literal parameters once per compiled call
//! ([`qp_exec::FunctionRegistry::register_bound_scalar`]) into a closure
//! over a [`Doi`] that computes `scale · d_plus_at(v)` (or
//! `d_minus_at`) from the column alone, so per-row work is one argument,
//! and the degrees are those of the profile's own `Doi`: a float literal
//! prints as the shortest text that parses back to the same bits.

use std::sync::Arc;

use qp_exec::{AggState, Engine, FunctionRegistry, ScalarUdf};
use qp_sql::{builder, Expr};
use qp_storage::Value;

use crate::doi::{Degree, Doi};
use crate::elastic::{ElasticFunction, ElasticShape};
use crate::profile::Profile;
use crate::ranking::RankingKind;
use crate::select::SelectedPreference;

/// The doi built-in's name.
const DOI_FN: &str = "qp_doi";

/// An engine with the personalization built-ins: `qp_doi` and the three
/// `qp_rank_*` aggregates (module docs). Every engine that runs a
/// personalized statement is built here, and so is any engine that
/// replays one from its text.
pub fn engine() -> Engine {
    let mut functions = FunctionRegistry::new();
    functions.register_bound_scalar(DOI_FN, bind_doi);
    for kind in RankingKind::ALL {
        functions.register_aggregate(rank_fn(kind), move || {
            Box::new(RankState {
                kind,
                degrees: Vec::new(),
            }) as Box<dyn AggState>
        });
    }
    Engine::with_functions(functions)
}

/// The degree of a tuple satisfying `sp`, whose condition attribute is
/// `column`: `qp_doi(column, 'd+', …)` for an elastic presence
/// preference, the constant `d⁺` otherwise.
pub(crate) fn satisfaction(profile: &Profile, sp: &SelectedPreference, column: Expr) -> Expr {
    let sel = sp.sel(profile);
    if sel.doi.is_elastic() && sel.is_presence() {
        doi_call(column, "d+", sp.join_degree, &sel.doi)
    } else {
        builder::float(sp.d_plus_peak(profile))
    }
}

/// The degree of a tuple failing `sp`, whose condition attribute is
/// `column`: `qp_doi(column, 'd-', …)` for an elastic preference, the
/// constant `d⁻` otherwise.
pub(crate) fn failure(profile: &Profile, sp: &SelectedPreference, column: Expr) -> Expr {
    let sel = sp.sel(profile);
    if sel.doi.is_elastic() {
        doi_call(column, "d-", sp.join_degree, &sel.doi)
    } else {
        builder::float(sp.d_minus(profile))
    }
}

/// SPA's ranking `r(degrees)` of a group's satisfaction degrees.
pub(crate) fn rank(kind: RankingKind, degrees: Expr) -> Expr {
    builder::func(rank_fn(kind), vec![degrees])
}

fn rank_fn(kind: RankingKind) -> &'static str {
    match kind {
        RankingKind::Inflationary => "qp_rank_inflationary",
        RankingKind::Dominant => "qp_rank_dominant",
        RankingKind::Reserved => "qp_rank_reserved",
    }
}

fn doi_call(column: Expr, side: &str, scale: f64, doi: &Doi) -> Expr {
    let mut args = vec![column, builder::string(side), builder::float(scale)];
    for component in [&doi.on_true, &doi.on_false] {
        let (shape, center, width, peak, plateau) = match component {
            Degree::Exact(d) => ("exact", 0.0, 0.0, *d, 0.0),
            Degree::Elastic(e) => {
                let (shape, plateau) = match e.shape {
                    ElasticShape::Triangular => ("triangular", 0.0),
                    ElasticShape::Trapezoidal { plateau } => ("trapezoidal", plateau),
                    ElasticShape::Cosine => ("cosine", 0.0),
                };
                (shape, e.center, e.width, e.peak, plateau)
            }
        };
        args.push(builder::string(shape));
        args.extend([center, width, peak, plateau].map(builder::float));
    }
    builder::func(DOI_FN, args)
}

/// `qp_doi`'s plan-time binding: the inverse of [`doi_call`].
fn bind_doi(params: &[Value]) -> Result<ScalarUdf, String> {
    if params.len() != 12 {
        return Err(format!(
            "expected 12 parameters after the value, got {}",
            params.len()
        ));
    }
    let scale = number(&params[1])?;
    let doi = Doi {
        on_true: component(&params[2..7])?,
        on_false: component(&params[7..])?,
    };
    let degree: ScalarUdf = match params[0].as_str() {
        Some("d+") => Arc::new(
            move |args: &[Value]| match args.first().and_then(Value::as_f64) {
                Some(v) => Value::Float(scale * doi.d_plus_at(v)),
                None => Value::Null,
            },
        ),
        Some("d-") => Arc::new(
            move |args: &[Value]| match args.first().and_then(Value::as_f64) {
                Some(v) => Value::Float(scale * doi.d_minus_at(v)),
                None => Value::Null,
            },
        ),
        _ => return Err(format!("side must be 'd+' or 'd-', got {}", params[0])),
    };
    Ok(degree)
}

fn component(params: &[Value]) -> Result<Degree, String> {
    let shape = params[0]
        .as_str()
        .ok_or_else(|| format!("a shape must be text, got {}", params[0]))?;
    let [center, width, peak, plateau] =
        [&params[1], &params[2], &params[3], &params[4]].map(number);
    let (center, width, peak, plateau) = (center?, width?, peak?, plateau?);
    let shape = match shape {
        "exact" => return Ok(Degree::Exact(peak)),
        "triangular" => ElasticShape::Triangular,
        "trapezoidal" => ElasticShape::Trapezoidal { plateau },
        "cosine" => ElasticShape::Cosine,
        other => return Err(format!("unknown doi shape '{other}'")),
    };
    ElasticFunction::new(center, width, peak, shape)
        .map(Degree::Elastic)
        .map_err(|e| e.to_string())
}

fn number(v: &Value) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("expected a number, got {v}"))
}

/// The aggregate state of `qp_rank_*`: the positive combination of a
/// group's degrees under one ranking philosophy.
struct RankState {
    kind: RankingKind,
    degrees: Vec<f64>,
}

impl AggState for RankState {
    fn update(&mut self, args: &[Value]) {
        if let Some(d) = args.first().and_then(Value::as_f64) {
            self.degrees.push(d.max(0.0));
        }
    }
    fn finish(&mut self) -> Value {
        Value::Float(self.kind.positive(&self.degrees))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_sql::parse_query;
    use qp_storage::{Attribute, DataType, Database};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation("M", vec![Attribute::new("d", DataType::Int)], &[])
            .unwrap();
        for d in [60, 100, 110, 120, 135, 149, 150, 200] {
            db.insert_by_name("M", vec![Value::Int(d)]).unwrap();
        }
        db.insert_by_name("M", vec![Value::Null]).unwrap();
        db
    }

    fn elastic(center: f64, width: f64, peak: f64, shape: ElasticShape) -> Degree {
        Degree::Elastic(ElasticFunction::new(center, width, peak, shape).unwrap())
    }

    /// Every shape and side, evaluated through the SQL text on an engine
    /// from [`engine`], equals the `Doi` arithmetic bit for bit.
    #[test]
    fn doi_text_computes_the_profile_degrees_exactly() {
        let db = db();
        let engine = engine();
        let dois = [
            Doi::new(elastic(120.0, 30.0, 0.3, ElasticShape::Triangular), 0.0).unwrap(),
            Doi::new(
                elastic(
                    120.0,
                    30.0,
                    0.7,
                    ElasticShape::Trapezoidal { plateau: 10.0 },
                ),
                elastic(120.0, 30.0, -0.5, ElasticShape::Cosine),
            )
            .unwrap(),
            Doi::new(-0.9, elastic(110.0, 45.5, 0.65, ElasticShape::Cosine)).unwrap(),
        ];
        for doi in &dois {
            for (side, scale) in [("d+", 0.72), ("d-", 0.9), ("d+", 1.0 / 3.0)] {
                let call = doi_call(builder::bare_col("d"), side, scale, doi);
                let sql = format!("select d, {call} from M");
                let rs = engine.execute_sql(&db, &sql).unwrap();
                for row in &rs.rows {
                    let want = match row[0].as_f64() {
                        None => Value::Null,
                        Some(v) if side == "d+" => Value::Float(scale * doi.d_plus_at(v)),
                        Some(v) => Value::Float(scale * doi.d_minus_at(v)),
                    };
                    match (&row[1], &want) {
                        (Value::Float(got), Value::Float(want)) => {
                            assert_eq!(got.to_bits(), want.to_bits(), "{sql} at {}", row[0])
                        }
                        (got, want) => assert_eq!(got, want, "{sql}"),
                    }
                }
            }
        }
    }

    #[test]
    fn rank_aggregates_follow_their_kind() {
        let db = db();
        let engine = engine();
        for kind in RankingKind::ALL {
            let sql = format!(
                "select {} from (select 0.5 as x from M where d = 100 \
                 union all select 0.25 as x from M where d = 200) u",
                rank(kind, builder::bare_col("x"))
            );
            let rs = engine.execute_sql(&db, &sql).unwrap();
            assert_eq!(
                rs.rows[0][0],
                Value::Float(kind.positive(&[0.5, 0.25])),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn malformed_doi_parameters_fail_the_compile() {
        let db = db();
        let engine = engine();
        for args in [
            "d, 'd+', 1.0",
            "d, 'd*', 1.0, 'exact', 0.0, 0.0, 0.5, 0.0, 'exact', 0.0, 0.0, 0.0, 0.0",
            "d, 'd+', 1.0, 'round', 0.0, 0.0, 0.5, 0.0, 'exact', 0.0, 0.0, 0.0, 0.0",
            "d, 'd+', 1.0, 'triangular', 120.0, 0.0, 0.5, 0.0, 'exact', 0.0, 0.0, 0.0, 0.0",
            "d, 'd+', d, 'exact', 0.0, 0.0, 0.5, 0.0, 'exact', 0.0, 0.0, 0.0, 0.0",
        ] {
            let q = parse_query(&format!("select qp_doi({args}) from M")).unwrap();
            assert!(engine.execute(&db, &q).is_err(), "{args}");
        }
    }
}
