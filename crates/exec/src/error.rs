//! Execution and planning errors.

use std::fmt;

use qp_sql::ParseError;
use qp_storage::StorageError;

/// Errors raised while planning or executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The SQL text failed to parse (only from `execute_sql`).
    Parse(ParseError),
    /// A catalog lookup failed.
    Storage(StorageError),
    /// A table binding was not found in scope.
    UnknownBinding(String),
    /// A column name was not found in any binding.
    UnknownColumn(String),
    /// A column name matched more than one binding.
    AmbiguousColumn(String),
    /// Two bindings share a name.
    DuplicateBinding(String),
    /// A function name is not registered.
    UnknownFunction(String),
    /// A parameter of a parameterized function is not a literal.
    NonLiteralArgument {
        /// The function called.
        function: String,
        /// The argument's position, counting from 1.
        position: usize,
    },
    /// A function call's arguments do not fit the function.
    InvalidArgument {
        /// The function called.
        function: String,
        /// What is wrong with the arguments.
        reason: String,
    },
    /// An aggregate appeared where none is allowed, or vice versa.
    MisplacedAggregate(String),
    /// A non-grouped column was referenced in an aggregate query.
    NotGrouped(String),
    /// UNION ALL branches disagree on arity.
    UnionArityMismatch {
        /// Arity of the first branch.
        expected: usize,
        /// Arity of the offending branch.
        got: usize,
    },
    /// An IN sub-query projected more or fewer than one column.
    SubqueryArity(usize),
    /// An IN sub-query referenced bindings of the outer query (only
    /// uncorrelated sub-queries are supported).
    CorrelatedSubquery(String),
    /// ORDER BY expression could not be resolved.
    UnresolvedOrderBy(String),
    /// A type error during evaluation.
    Type(String),
    /// A [`crate::guard::QueryGuard`] budget was exhausted; the query was
    /// stopped before completion.
    ResourceExhausted {
        /// Which budget tripped.
        resource: ResourceKind,
        /// The configured limit (milliseconds for deadlines, rows
        /// otherwise).
        limit: u64,
    },
    /// The query was cancelled through its
    /// [`crate::guard::CancelToken`].
    Cancelled,
    /// An injected fault fired at a [`qp_storage::failpoint`] site (only
    /// under the `failpoints` feature).
    Fault(String),
    /// A [`crate::pool::morsel_map`] worker panicked; the unwind was
    /// caught at the morsel boundary (see [`crate::pool::WorkerPanic`])
    /// so the request degrades instead of the serving thread dying.
    WorkerPanic {
        /// Index of the morsel whose execution panicked.
        morsel: usize,
        /// The panic payload rendered as text.
        message: String,
    },
    /// An internal invariant was violated — a bug in the planner or
    /// engine, surfaced as an error instead of a panic so callers can
    /// degrade gracefully.
    Internal(String),
    /// Anything else.
    Unsupported(String),
}

/// The budget dimension named by [`ExecError::ResourceExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The result-row budget was spent.
    OutputRows,
    /// The operator-intermediate-row budget was spent.
    IntermediateRows,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Deadline => write!(f, "deadline"),
            ResourceKind::OutputRows => write!(f, "output rows"),
            ResourceKind::IntermediateRows => write!(f, "intermediate rows"),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Parse(e) => write!(f, "{e}"),
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::UnknownBinding(b) => write!(f, "unknown table binding `{b}`"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            ExecError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            ExecError::DuplicateBinding(b) => write!(f, "duplicate table binding `{b}`"),
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::NonLiteralArgument { function, position } => {
                write!(f, "argument {position} of `{function}` must be a literal")
            }
            ExecError::InvalidArgument { function, reason } => {
                write!(f, "invalid arguments to `{function}`: {reason}")
            }
            ExecError::MisplacedAggregate(n) => {
                write!(f, "aggregate `{n}` is not allowed in this context")
            }
            ExecError::NotGrouped(c) => {
                write!(f, "column `{c}` must appear in GROUP BY or an aggregate")
            }
            ExecError::UnionArityMismatch { expected, got } => {
                write!(f, "UNION ALL branches have different arities: {expected} vs {got}")
            }
            ExecError::SubqueryArity(n) => {
                write!(f, "IN sub-query must project exactly one column, got {n}")
            }
            ExecError::CorrelatedSubquery(c) => {
                write!(f, "correlated sub-queries are not supported (outer reference `{c}`)")
            }
            ExecError::UnresolvedOrderBy(e) => {
                write!(f, "cannot resolve ORDER BY expression `{e}`")
            }
            ExecError::Type(msg) => write!(f, "type error: {msg}"),
            ExecError::ResourceExhausted { resource, limit } => {
                let unit = if *resource == ResourceKind::Deadline { "ms" } else { "rows" };
                write!(f, "query exceeded its {resource} budget ({limit} {unit})")
            }
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::Fault(msg) => write!(f, "injected fault: {msg}"),
            ExecError::WorkerPanic { morsel, message } => {
                write!(f, "worker for morsel {morsel} panicked: {message}")
            }
            ExecError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            ExecError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Parse(e) => Some(e),
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::pool::WorkerPanic> for ExecError {
    fn from(p: crate::pool::WorkerPanic) -> Self {
        ExecError::WorkerPanic { morsel: p.morsel, message: p.message }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<ParseError> for ExecError {
    fn from(e: ParseError) -> Self {
        ExecError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ExecError::UnknownColumn("x".into()).to_string().contains("`x`"));
        assert!(ExecError::UnionArityMismatch { expected: 2, got: 3 }
            .to_string()
            .contains("2 vs 3"));
    }

    #[test]
    fn display_guard_variants() {
        let e = ExecError::ResourceExhausted { resource: ResourceKind::Deadline, limit: 250 };
        assert_eq!(e.to_string(), "query exceeded its deadline budget (250 ms)");
        let e = ExecError::ResourceExhausted { resource: ResourceKind::OutputRows, limit: 10 };
        assert_eq!(e.to_string(), "query exceeded its output rows budget (10 rows)");
        let e =
            ExecError::ResourceExhausted { resource: ResourceKind::IntermediateRows, limit: 99 };
        assert_eq!(e.to_string(), "query exceeded its intermediate rows budget (99 rows)");
        assert_eq!(ExecError::Cancelled.to_string(), "query cancelled");
        assert_eq!(ExecError::Fault("exec.scan".into()).to_string(), "injected fault: exec.scan");
        assert_eq!(
            ExecError::WorkerPanic { morsel: 2, message: "boom".into() }.to_string(),
            "worker for morsel 2 panicked: boom"
        );
        assert_eq!(
            ExecError::Internal("oops".into()).to_string(),
            "internal invariant violated: oops"
        );
    }

    #[test]
    fn source_chains_only_wrapped_errors() {
        use std::error::Error;
        let e = ExecError::Storage(StorageError::UnknownRelation("R".into()));
        let src = e.source().expect("storage errors chain");
        assert!(src.to_string().contains('R'));
        assert!(ExecError::Cancelled.source().is_none());
        assert!(ExecError::ResourceExhausted { resource: ResourceKind::Deadline, limit: 1 }
            .source()
            .is_none());
        assert!(ExecError::Fault("site".into()).source().is_none());
    }
}
