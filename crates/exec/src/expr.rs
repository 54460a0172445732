//! Compiled (physical) expressions.
//!
//! A [`PhysExpr`] is an AST expression with every name resolved to a column
//! offset in the operator's input row, every function resolved against the
//! registry, and every uncorrelated `IN` sub-query pre-executed into a hash
//! set. Evaluation follows SQL three-valued logic: `NULL` comparisons
//! produce `NULL`, filters treat `NULL` as not-satisfied.

use std::collections::HashSet;
use std::sync::Arc;

use qp_sql::{BinaryOp, UnaryOp};
use qp_storage::Value;

use crate::functions::ScalarUdf;

/// A compiled expression, evaluated against a flat row of values.
#[derive(Clone)]
pub enum PhysExpr {
    /// A constant.
    Literal(Value),
    /// Input column by offset.
    Column(usize),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<PhysExpr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<PhysExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<PhysExpr>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// Negated form.
        negated: bool,
        /// Inclusive lower bound.
        low: Box<PhysExpr>,
        /// Inclusive upper bound.
        high: Box<PhysExpr>,
    },
    /// `expr [NOT] IN (e1, e2, …)` with arbitrary element expressions.
    InList {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// Negated form.
        negated: bool,
        /// Candidate expressions.
        list: Vec<PhysExpr>,
    },
    /// `expr [NOT] IN (<materialized sub-query>)`.
    InSet {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// Negated form.
        negated: bool,
        /// Materialized sub-query values (NULLs excluded).
        set: Arc<HashSet<Value>>,
        /// Whether the sub-query produced any NULL (drives 3VL).
        has_null: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// `IS NOT NULL` form.
        negated: bool,
    },
    /// A scalar function call.
    Scalar {
        /// Function name (for diagnostics).
        name: String,
        /// Resolved implementation.
        f: ScalarUdf,
        /// Compiled arguments.
        args: Vec<PhysExpr>,
    },
}

impl std::fmt::Debug for PhysExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysExpr::Literal(v) => write!(f, "Literal({v})"),
            PhysExpr::Column(i) => write!(f, "Column({i})"),
            PhysExpr::Unary { op, expr } => write!(f, "Unary({op:?}, {expr:?})"),
            PhysExpr::Binary { left, op, right } => write!(f, "({left:?} {op} {right:?})"),
            PhysExpr::Between { expr, negated, low, high } => {
                write!(f, "Between({expr:?}, not={negated}, {low:?}, {high:?})")
            }
            PhysExpr::InList { expr, negated, list } => {
                write!(f, "InList({expr:?}, not={negated}, {list:?})")
            }
            PhysExpr::InSet { expr, negated, set, has_null } => {
                write!(f, "InSet({expr:?}, not={negated}, |set|={}, null={has_null})", set.len())
            }
            PhysExpr::IsNull { expr, negated } => write!(f, "IsNull({expr:?}, not={negated})"),
            PhysExpr::Scalar { name, args, .. } => write!(f, "{name}({args:?})"),
        }
    }
}

/// Columnar row access for batch evaluation: a *view* exposes `len()`
/// rows whose column values can be borrowed without cloning. The batch
/// engine implements this for its [`crate::batch::Batch`] and for the
/// scan's pre-materialization row view; single `&[Value]` rows
/// (aggregation, `HAVING`, [`PhysExpr::eval`] callers) adapt through
/// [`RowView`]. One generic evaluator serves all three, so row-shaped and
/// batch evaluation cannot drift semantically.
pub(crate) trait ColView {
    /// Number of physical rows in the view.
    fn len(&self) -> usize;
    /// Borrow of the value at (`col`, `row`).
    fn value(&self, col: usize, row: usize) -> &Value;
}

/// A single flat row viewed as a one-row [`ColView`].
struct RowView<'a>(&'a [Value]);

impl ColView for RowView<'_> {
    #[inline]
    fn len(&self) -> usize {
        1
    }
    #[inline]
    fn value(&self, col: usize, _row: usize) -> &Value {
        &self.0[col]
    }
}

/// A leaf operand the comparison fast paths can read by reference —
/// a column offset or a literal. Anything else falls back to the
/// generic recursive evaluator.
enum Operand<'e> {
    Col(usize),
    Lit(&'e Value),
}

impl Operand<'_> {
    #[inline]
    fn get<'v, V: ColView>(&'v self, view: &'v V, row: usize) -> &'v Value {
        match self {
            Operand::Col(c) => view.value(*c, row),
            Operand::Lit(v) => v,
        }
    }
}

fn operand(e: &PhysExpr) -> Option<Operand<'_>> {
    match e {
        PhysExpr::Column(i) => Some(Operand::Col(*i)),
        PhysExpr::Literal(v) => Some(Operand::Lit(v)),
        _ => None,
    }
}

/// Applies `keep` to every selected row (`None` = all rows) and collects
/// the surviving positions — the shape of every selection-vector pass.
fn retain_sel<V: ColView>(
    view: &V,
    sel: Option<&[u32]>,
    mut keep: impl FnMut(usize) -> bool,
) -> Vec<u32> {
    match sel {
        Some(s) => {
            let mut out = Vec::with_capacity(s.len());
            for &r in s {
                if keep(r as usize) {
                    out.push(r);
                }
            }
            out
        }
        None => {
            let mut out = Vec::with_capacity(view.len());
            for r in 0..view.len() {
                if keep(r) {
                    out.push(r as u32);
                }
            }
            out
        }
    }
}

/// Union of two ascending selection vectors (for `OR`).
fn merge_sel(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Three-valued boolean: `Some(bool)` or unknown.
type Tri = Option<bool>;

fn tri_to_value(t: Tri) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn value_to_tri(v: &Value) -> Tri {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        // Non-boolean in a boolean position: treat as unknown.
        _ => None,
    }
}

impl PhysExpr {
    /// Evaluates the expression against `row`. Type mismatches in
    /// arithmetic yield `NULL`, mirroring how the planner's lack of full
    /// static typing is resolved at runtime in permissive SQL dialects.
    pub fn eval(&self, row: &[Value]) -> Value {
        self.eval_at(&RowView(row), 0)
    }

    /// Evaluates the expression against row `row` of a column view. The
    /// single generic evaluator behind both [`PhysExpr::eval`] (via
    /// [`RowView`]) and the batch engine.
    pub(crate) fn eval_at<V: ColView>(&self, view: &V, row: usize) -> Value {
        match self {
            PhysExpr::Literal(v) => v.clone(),
            PhysExpr::Column(i) => view.value(*i, row).clone(),
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval_at(view, row);
                match op {
                    UnaryOp::Neg => match v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(x) => Value::Float(-x),
                        _ => Value::Null,
                    },
                    UnaryOp::Not => tri_to_value(value_to_tri(&v).map(|b| !b)),
                }
            }
            PhysExpr::Binary { left, op, right } => {
                match op {
                    BinaryOp::And => {
                        // Short-circuit: false AND x = false even when x is
                        // unknown.
                        let l = value_to_tri(&left.eval_at(view, row));
                        if l == Some(false) {
                            return Value::Bool(false);
                        }
                        let r = value_to_tri(&right.eval_at(view, row));
                        return tri_to_value(match (l, r) {
                            (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        });
                    }
                    BinaryOp::Or => {
                        let l = value_to_tri(&left.eval_at(view, row));
                        if l == Some(true) {
                            return Value::Bool(true);
                        }
                        let r = value_to_tri(&right.eval_at(view, row));
                        return tri_to_value(match (l, r) {
                            (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        });
                    }
                    _ => {}
                }
                let l = left.eval_at(view, row);
                let r = right.eval_at(view, row);
                if op.is_comparison() {
                    return tri_to_value(compare(&l, op, &r));
                }
                arithmetic(&l, *op, &r)
            }
            PhysExpr::Between { expr, negated, low, high } => {
                let v = expr.eval_at(view, row);
                let lo = low.eval_at(view, row);
                let hi = high.eval_at(view, row);
                let ge = compare(&v, &BinaryOp::Ge, &lo);
                let le = compare(&v, &BinaryOp::Le, &hi);
                let t = match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                tri_to_value(apply_negation(t, *negated))
            }
            PhysExpr::InList { expr, negated, list } => {
                let v = expr.eval_at(view, row);
                if v.is_null() {
                    return Value::Null;
                }
                let mut saw_null = false;
                for e in list {
                    let c = e.eval_at(view, row);
                    match v.sql_eq(&c) {
                        Some(true) => return tri_to_value(apply_negation(Some(true), *negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                let t = if saw_null { None } else { Some(false) };
                tri_to_value(apply_negation(t, *negated))
            }
            PhysExpr::InSet { expr, negated, set, has_null } => {
                let v = expr.eval_at(view, row);
                if v.is_null() {
                    return Value::Null;
                }
                let t = if set.contains(&v) {
                    Some(true)
                } else if *has_null {
                    None
                } else {
                    Some(false)
                };
                tri_to_value(apply_negation(t, *negated))
            }
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.eval_at(view, row);
                Value::Bool(v.is_null() != *negated)
            }
            PhysExpr::Scalar { f, args, .. } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval_at(view, row)).collect();
                f(&vals)
            }
        }
    }

    /// Evaluates as a filter predicate: `NULL`/unknown is *not satisfied*.
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        matches!(self.eval(row), Value::Bool(true))
    }

    /// Batch filter: evaluates the predicate over the rows of `view`
    /// selected by `sel` (`None` = all rows) and returns the surviving
    /// positions as an ascending selection vector.
    ///
    /// Filter semantics are "row passes iff the predicate is `true`"
    /// (NULL never passes), so the 3VL connectives decompose exactly:
    /// `AND` is sequential refinement of the selection vector, `OR` is
    /// the union of both sides' vectors. Comparisons over column/literal
    /// operands run by reference without cloning a single `Value`; every
    /// other shape falls back to the generic per-row evaluator.
    pub(crate) fn filter_view<V: ColView>(&self, view: &V, sel: Option<&[u32]>) -> Vec<u32> {
        match self {
            PhysExpr::Binary { left, op: BinaryOp::And, right } => {
                let l = left.filter_view(view, sel);
                right.filter_view(view, Some(&l))
            }
            PhysExpr::Binary { left, op: BinaryOp::Or, right } => {
                let l = left.filter_view(view, sel);
                let r = right.filter_view(view, sel);
                merge_sel(&l, &r)
            }
            PhysExpr::Binary { left, op, right } if op.is_comparison() => {
                match (operand(left), operand(right)) {
                    (Some(a), Some(b)) => retain_sel(view, sel, |r| {
                        compare(a.get(view, r), op, b.get(view, r)) == Some(true)
                    }),
                    _ => self.filter_fallback(view, sel),
                }
            }
            PhysExpr::Between { expr, negated, low, high } => {
                match (operand(expr), operand(low), operand(high)) {
                    (Some(v), Some(lo), Some(hi)) => retain_sel(view, sel, |r| {
                        let val = v.get(view, r);
                        let ge = compare(val, &BinaryOp::Ge, lo.get(view, r));
                        let le = compare(val, &BinaryOp::Le, hi.get(view, r));
                        let t = match (ge, le) {
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        };
                        apply_negation(t, *negated) == Some(true)
                    }),
                    _ => self.filter_fallback(view, sel),
                }
            }
            PhysExpr::InSet { expr, negated, set, has_null } => match operand(expr) {
                Some(v) => retain_sel(view, sel, |r| {
                    let val = v.get(view, r);
                    if val.is_null() {
                        return false;
                    }
                    let t = if set.contains(val) {
                        Some(true)
                    } else if *has_null {
                        None
                    } else {
                        Some(false)
                    };
                    apply_negation(t, *negated) == Some(true)
                }),
                None => self.filter_fallback(view, sel),
            },
            PhysExpr::IsNull { expr, negated } => match operand(expr) {
                Some(v) => retain_sel(view, sel, |r| v.get(view, r).is_null() != *negated),
                None => self.filter_fallback(view, sel),
            },
            _ => self.filter_fallback(view, sel),
        }
    }

    fn filter_fallback<V: ColView>(&self, view: &V, sel: Option<&[u32]>) -> Vec<u32> {
        retain_sel(view, sel, |r| matches!(self.eval_at(view, r), Value::Bool(true)))
    }

    /// Batch projection of one expression: appends the value for every
    /// selected row of `view` to `out` (used for join keys and output
    /// columns). `Column` references clone straight out of the view.
    pub(crate) fn eval_view<V: ColView>(&self, view: &V, sel: Option<&[u32]>, out: &mut Vec<Value>) {
        match self {
            PhysExpr::Column(i) => match sel {
                Some(s) => out.extend(s.iter().map(|&r| view.value(*i, r as usize).clone())),
                None => out.extend((0..view.len()).map(|r| view.value(*i, r).clone())),
            },
            _ => match sel {
                Some(s) => out.extend(s.iter().map(|&r| self.eval_at(view, r as usize))),
                None => out.extend((0..view.len()).map(|r| self.eval_at(view, r))),
            },
        }
    }
}

fn apply_negation(t: Tri, negated: bool) -> Tri {
    if negated {
        t.map(|b| !b)
    } else {
        t
    }
}

fn compare(l: &Value, op: &BinaryOp, r: &Value) -> Tri {
    let ord = l.sql_cmp(r)?;
    Some(match op {
        BinaryOp::Eq => ord.is_eq(),
        BinaryOp::Neq => ord.is_ne(),
        BinaryOp::Lt => ord.is_lt(),
        BinaryOp::Le => ord.is_le(),
        BinaryOp::Gt => ord.is_gt(),
        BinaryOp::Ge => ord.is_ge(),
        _ => unreachable!("compare called with non-comparison"),
    })
}

fn arithmetic(l: &Value, op: BinaryOp, r: &Value) -> Value {
    // Integer arithmetic stays integral (except division); everything else
    // goes through f64. NULL or non-numeric operands yield NULL.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            BinaryOp::Add => Value::Int(a.wrapping_add(*b)),
            BinaryOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinaryOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinaryOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            _ => Value::Null,
        },
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Value::Null,
            };
            match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => Value::Null,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> PhysExpr {
        PhysExpr::Literal(v.into())
    }

    fn bin(l: PhysExpr, op: BinaryOp, r: PhysExpr) -> PhysExpr {
        PhysExpr::Binary { left: Box::new(l), op, right: Box::new(r) }
    }

    #[test]
    fn column_ref() {
        let e = PhysExpr::Column(1);
        assert_eq!(e.eval(&[Value::Int(1), Value::str("x")]), Value::str("x"));
    }

    #[test]
    fn comparison_with_null_is_unknown() {
        let e = bin(lit(Value::Null), BinaryOp::Eq, lit(1i64));
        assert_eq!(e.eval(&[]), Value::Null);
        assert!(!e.eval_bool(&[]));
    }

    #[test]
    fn and_short_circuit_with_null() {
        // false AND NULL = false; true AND NULL = NULL
        let f = bin(lit(false), BinaryOp::And, lit(Value::Null));
        assert_eq!(f.eval(&[]), Value::Bool(false));
        let t = bin(lit(true), BinaryOp::And, lit(Value::Null));
        assert_eq!(t.eval(&[]), Value::Null);
    }

    #[test]
    fn or_three_valued() {
        let t = bin(lit(true), BinaryOp::Or, lit(Value::Null));
        assert_eq!(t.eval(&[]), Value::Bool(true));
        let u = bin(lit(false), BinaryOp::Or, lit(Value::Null));
        assert_eq!(u.eval(&[]), Value::Null);
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(bin(lit(2i64), BinaryOp::Add, lit(3i64)).eval(&[]), Value::Int(5));
        assert_eq!(bin(lit(2i64), BinaryOp::Mul, lit(1.5)).eval(&[]), Value::Float(3.0));
        assert_eq!(bin(lit(7i64), BinaryOp::Div, lit(2i64)).eval(&[]), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(bin(lit(1i64), BinaryOp::Div, lit(0i64)).eval(&[]), Value::Null);
        assert_eq!(bin(lit(1.0), BinaryOp::Div, lit(0.0)).eval(&[]), Value::Null);
    }

    #[test]
    fn arithmetic_type_mismatch_is_null() {
        assert_eq!(bin(lit("a"), BinaryOp::Add, lit(1i64)).eval(&[]), Value::Null);
    }

    #[test]
    fn between_semantics() {
        let e = PhysExpr::Between {
            expr: Box::new(lit(5i64)),
            negated: false,
            low: Box::new(lit(1i64)),
            high: Box::new(lit(10i64)),
        };
        assert_eq!(e.eval(&[]), Value::Bool(true));
        let e = PhysExpr::Between {
            expr: Box::new(lit(11i64)),
            negated: true,
            low: Box::new(lit(1i64)),
            high: Box::new(lit(10i64)),
        };
        assert_eq!(e.eval(&[]), Value::Bool(true));
        // NULL bound with a definite miss is still false:
        let e = PhysExpr::Between {
            expr: Box::new(lit(0i64)),
            negated: false,
            low: Box::new(lit(1i64)),
            high: Box::new(lit(Value::Null)),
        };
        assert_eq!(e.eval(&[]), Value::Bool(false));
    }

    #[test]
    fn in_list_three_valued() {
        let e = PhysExpr::InList {
            expr: Box::new(lit(3i64)),
            negated: false,
            list: vec![lit(1i64), lit(Value::Null)],
        };
        // not found, but NULL present -> unknown
        assert_eq!(e.eval(&[]), Value::Null);
        let e = PhysExpr::InList {
            expr: Box::new(lit(1i64)),
            negated: false,
            list: vec![lit(1i64), lit(Value::Null)],
        };
        assert_eq!(e.eval(&[]), Value::Bool(true));
    }

    #[test]
    fn not_in_set_with_null() {
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        let e = PhysExpr::InSet {
            expr: Box::new(lit(2i64)),
            negated: true,
            set: Arc::new(set.clone()),
            has_null: true,
        };
        // 2 NOT IN {1, NULL} -> unknown -> filter false
        assert_eq!(e.eval(&[]), Value::Null);
        let e = PhysExpr::InSet {
            expr: Box::new(lit(2i64)),
            negated: true,
            set: Arc::new(set),
            has_null: false,
        };
        assert_eq!(e.eval(&[]), Value::Bool(true));
    }

    #[test]
    fn is_null_never_unknown() {
        let e = PhysExpr::IsNull { expr: Box::new(lit(Value::Null)), negated: false };
        assert_eq!(e.eval(&[]), Value::Bool(true));
        let e = PhysExpr::IsNull { expr: Box::new(lit(1i64)), negated: true };
        assert_eq!(e.eval(&[]), Value::Bool(true));
    }

    #[test]
    fn scalar_call() {
        let f: ScalarUdf = Arc::new(|args: &[Value]| {
            args.first().and_then(Value::as_f64).map(|x| Value::Float(x * 2.0)).unwrap_or(Value::Null)
        });
        let e = PhysExpr::Scalar { name: "dbl".into(), f, args: vec![lit(2.5)] };
        assert_eq!(e.eval(&[]), Value::Float(5.0));
    }

    #[test]
    fn neg_and_not() {
        let e = PhysExpr::Unary { op: UnaryOp::Neg, expr: Box::new(lit(3i64)) };
        assert_eq!(e.eval(&[]), Value::Int(-3));
        let e = PhysExpr::Unary { op: UnaryOp::Not, expr: Box::new(lit(Value::Null)) };
        assert_eq!(e.eval(&[]), Value::Null);
    }
}
