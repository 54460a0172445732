//! Scalar and aggregate function registries.
//!
//! The paper's SPA algorithm relies on the DBMS supporting a *user-defined
//! aggregate* ranking function (`order by r(degree)`, Example 6) and the
//! elastic-preference rewriting embeds per-tuple doi computations, which we
//! expose as *scalar UDFs*. The registries are ordinary string-keyed maps
//! the planner consults at compile time.
//!
//! An engine's functions are fixed when it is built
//! ([`crate::Engine::with_functions`]): a query's text then names the same
//! functions for as long as the engine lives, so a plan cached under that
//! text computes what the text says. A function whose behaviour depends on
//! per-query constants takes them as literal *parameters*
//! ([`FunctionRegistry::register_bound_scalar`]) instead of being
//! re-registered under a reused name.

use std::collections::HashMap;
use std::sync::Arc;

use qp_storage::Value;

/// A scalar user-defined function: pure, infallible (return
/// [`Value::Null`] on inapplicable input, mirroring SQL's NULL
/// propagation).
pub type ScalarUdf = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// Binds a parameterized scalar's literal parameters into the function
/// evaluated per row, or says why the parameters are invalid.
pub type ScalarBinder = Arc<dyn Fn(&[Value]) -> Result<ScalarUdf, String> + Send + Sync>;

/// Factory for aggregate state. One [`AggregateFunction`] is registered per
/// name; one [`AggState`] is created per group.
pub trait AggregateFunction: Send + Sync {
    /// Creates fresh accumulator state for a new group.
    fn new_state(&self) -> Box<dyn AggState>;
}

/// Per-group accumulator.
pub trait AggState {
    /// Folds one row's argument values into the state.
    fn update(&mut self, args: &[Value]);
    /// Produces the aggregate value for the group.
    fn finish(&mut self) -> Value;
}

impl<F> AggregateFunction for F
where
    F: Fn() -> Box<dyn AggState> + Send + Sync,
{
    fn new_state(&self) -> Box<dyn AggState> {
        self()
    }
}

/// The registries plus the built-ins.
pub struct FunctionRegistry {
    scalars: HashMap<String, ScalarUdf>,
    bound: HashMap<String, ScalarBinder>,
    aggregates: HashMap<String, Arc<dyn AggregateFunction>>,
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("scalars", &self.scalars.keys().collect::<Vec<_>>())
            .field("bound", &self.bound.keys().collect::<Vec<_>>())
            .field("aggregates", &self.aggregates.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FunctionRegistry {
    /// A registry pre-populated with the SQL built-ins: aggregates `count`,
    /// `sum`, `avg`, `min`, `max` and scalars `abs`, `lower`, `upper`.
    pub fn new() -> Self {
        let mut r = FunctionRegistry {
            scalars: HashMap::new(),
            bound: HashMap::new(),
            aggregates: HashMap::new(),
        };
        r.register_aggregate("count", || Box::new(CountState(0)) as Box<dyn AggState>);
        r.register_aggregate("sum", || Box::new(SumState { sum: 0.0, any: false, int: true }) as _);
        r.register_aggregate("avg", || Box::new(AvgState { sum: 0.0, n: 0 }) as _);
        r.register_aggregate("min", || Box::new(MinMaxState { best: None, is_min: true }) as _);
        r.register_aggregate("max", || Box::new(MinMaxState { best: None, is_min: false }) as _);
        r.register_scalar("abs", |args: &[Value]| match args.first() {
            Some(Value::Int(i)) => Value::Int(i.abs()),
            Some(Value::Float(x)) => Value::Float(x.abs()),
            _ => Value::Null,
        });
        r.register_scalar("lower", |args: &[Value]| match args.first().and_then(Value::as_str) {
            Some(s) => Value::str(s.to_lowercase()),
            None => Value::Null,
        });
        r.register_scalar("upper", |args: &[Value]| match args.first().and_then(Value::as_str) {
            Some(s) => Value::str(s.to_uppercase()),
            None => Value::Null,
        });
        r
    }

    /// Registers (or replaces) a scalar function; names are
    /// case-insensitive.
    pub fn register_scalar(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Value + Send + Sync + 'static,
    ) {
        self.scalars.insert(name.to_lowercase(), Arc::new(f));
    }

    /// Registers (or replaces) a parameterized scalar: a call passes one
    /// per-row argument followed by parameters that must be literals. The
    /// planner hands the parameter values to `bind` once per compiled
    /// call and evaluates the returned function per row on the first
    /// argument alone, so the parameters cost nothing per row and are
    /// part of the query's text. An `Err` from `bind` fails the compile.
    pub fn register_bound_scalar(
        &mut self,
        name: &str,
        bind: impl Fn(&[Value]) -> Result<ScalarUdf, String> + Send + Sync + 'static,
    ) {
        self.bound.insert(name.to_lowercase(), Arc::new(bind));
    }

    /// Registers (or replaces) an aggregate function.
    pub fn register_aggregate(
        &mut self,
        name: &str,
        f: impl Fn() -> Box<dyn AggState> + Send + Sync + 'static,
    ) {
        self.aggregates.insert(name.to_lowercase(), Arc::new(f));
    }

    /// Looks up a scalar function.
    pub fn scalar(&self, name: &str) -> Option<ScalarUdf> {
        self.scalars.get(&name.to_lowercase()).cloned()
    }

    /// Looks up a parameterized scalar's binder.
    pub(crate) fn bound_scalar(&self, name: &str) -> Option<&ScalarBinder> {
        self.bound.get(&name.to_lowercase())
    }

    /// Looks up an aggregate function.
    pub fn aggregate(&self, name: &str) -> Option<Arc<dyn AggregateFunction>> {
        self.aggregates.get(&name.to_lowercase()).cloned()
    }

    /// Whether `name` names an aggregate (used by the planner to split
    /// aggregate calls from scalar calls).
    pub fn is_aggregate(&self, name: &str) -> bool {
        self.aggregates.contains_key(&name.to_lowercase())
    }
}

struct CountState(i64);

impl AggState for CountState {
    fn update(&mut self, args: &[Value]) {
        // count(*) passes no args; count(x) skips NULLs.
        if args.is_empty() || !args[0].is_null() {
            self.0 += 1;
        }
    }
    fn finish(&mut self) -> Value {
        Value::Int(self.0)
    }
}

struct SumState {
    sum: f64,
    any: bool,
    int: bool,
}

impl AggState for SumState {
    fn update(&mut self, args: &[Value]) {
        match args.first() {
            Some(Value::Int(i)) => {
                self.sum += *i as f64;
                self.any = true;
            }
            Some(Value::Float(x)) => {
                self.sum += x;
                self.any = true;
                self.int = false;
            }
            _ => {}
        }
    }
    fn finish(&mut self) -> Value {
        if !self.any {
            Value::Null
        } else if self.int {
            Value::Int(self.sum as i64)
        } else {
            Value::Float(self.sum)
        }
    }
}

struct AvgState {
    sum: f64,
    n: u64,
}

impl AggState for AvgState {
    fn update(&mut self, args: &[Value]) {
        if let Some(x) = args.first().and_then(Value::as_f64) {
            self.sum += x;
            self.n += 1;
        }
    }
    fn finish(&mut self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Float(self.sum / self.n as f64)
        }
    }
}

struct MinMaxState {
    best: Option<Value>,
    is_min: bool,
}

impl AggState for MinMaxState {
    fn update(&mut self, args: &[Value]) {
        let v = match args.first() {
            Some(v) if !v.is_null() => v.clone(),
            _ => return,
        };
        match &self.best {
            None => self.best = Some(v),
            Some(b) => {
                let take = if self.is_min { v.total_cmp(b).is_lt() } else { v.total_cmp(b).is_gt() };
                if take {
                    self.best = Some(v);
                }
            }
        }
    }
    fn finish(&mut self) -> Value {
        self.best.take().unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_agg(reg: &FunctionRegistry, name: &str, rows: &[Vec<Value>]) -> Value {
        let f = reg.aggregate(name).unwrap();
        let mut st = f.new_state();
        for r in rows {
            st.update(r);
        }
        st.finish()
    }

    #[test]
    fn count_star_and_count_col() {
        let reg = FunctionRegistry::new();
        let star_rows: Vec<Vec<Value>> = vec![vec![], vec![], vec![]];
        assert_eq!(run_agg(&reg, "count", &star_rows), Value::Int(3));
        let col_rows = vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(2)]];
        assert_eq!(run_agg(&reg, "COUNT", &col_rows), Value::Int(2));
    }

    #[test]
    fn sum_int_and_float() {
        let reg = FunctionRegistry::new();
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        assert_eq!(run_agg(&reg, "sum", &rows), Value::Int(3));
        let rows = vec![vec![Value::Int(1)], vec![Value::Float(0.5)]];
        assert_eq!(run_agg(&reg, "sum", &rows), Value::Float(1.5));
        assert_eq!(run_agg(&reg, "sum", &[]), Value::Null);
    }

    #[test]
    fn avg_skips_nulls() {
        let reg = FunctionRegistry::new();
        let rows = vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(4)]];
        assert_eq!(run_agg(&reg, "avg", &rows), Value::Float(3.0));
    }

    #[test]
    fn min_max() {
        let reg = FunctionRegistry::new();
        let rows = vec![vec![Value::Int(5)], vec![Value::Int(2)], vec![Value::Int(9)]];
        assert_eq!(run_agg(&reg, "min", &rows), Value::Int(2));
        assert_eq!(run_agg(&reg, "max", &rows), Value::Int(9));
        assert_eq!(run_agg(&reg, "min", &[]), Value::Null);
    }

    #[test]
    fn scalar_builtins() {
        let reg = FunctionRegistry::new();
        let abs = reg.scalar("ABS").unwrap();
        assert_eq!(abs(&[Value::Int(-3)]), Value::Int(3));
        assert_eq!(abs(&[Value::Null]), Value::Null);
        let lower = reg.scalar("lower").unwrap();
        assert_eq!(lower(&[Value::str("ABC")]), Value::str("abc"));
    }

    #[test]
    fn custom_aggregate_registration() {
        struct First(Option<Value>);
        impl AggState for First {
            fn update(&mut self, args: &[Value]) {
                if self.0.is_none() {
                    self.0 = args.first().cloned();
                }
            }
            fn finish(&mut self) -> Value {
                self.0.take().unwrap_or(Value::Null)
            }
        }
        let mut reg = FunctionRegistry::new();
        reg.register_aggregate("first", || Box::new(First(None)));
        assert!(reg.is_aggregate("FIRST"));
        let rows = vec![vec![Value::Int(9)], vec![Value::Int(1)]];
        assert_eq!(run_agg(&reg, "first", &rows), Value::Int(9));
    }

    #[test]
    fn unknown_lookup() {
        let reg = FunctionRegistry::new();
        assert!(reg.scalar("nope").is_none());
        assert!(!reg.is_aggregate("nope"));
    }
}
