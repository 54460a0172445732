#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # qp-exec
//!
//! Query execution engine over `qp-storage`, consuming `qp-sql` ASTs.
//!
//! The engine substitutes for the RDBMS (Oracle 9i) underneath the paper's
//! prototype. It executes the SPJ subset plus everything the paper's
//! personalization algorithms generate:
//!
//! * comma joins resolved into an index-nested-loop / hash join tree,
//!   ordered greedily by histogram-estimated cardinalities,
//! * `UNION ALL` bodies and derived tables (SPA's union of per-preference
//!   sub-queries grouped in an outer query),
//! * grouping, `HAVING`, ordering and limits,
//! * uncorrelated `(NOT) IN` sub-queries with three-valued NULL semantics
//!   (the 1–n absence sub-queries of §5),
//! * scalar UDFs (elastic doi functions embedded in sub-queries) and
//!   aggregate UDFs (the ranking function `r(degree)` of Example 6),
//! * a `rowid` pseudo-column per base-table binding — the "tuple id" PPA
//!   identifies answer tuples by; `binding.rowid = <k>` predicates
//!   short-circuit into O(1) row fetches.
//!
//! Execution is vectorized and has one path: operators exchange
//! fixed-capacity columnar [`batch::Batch`]es with selection vectors,
//! scans materialize only the rows that survive their pushed predicates,
//! and guard budgets are charged per batch. The original row-at-a-time
//! interpreter survives only as a serial test oracle under `tests/`;
//! property tests check the engine against it byte for byte.

pub mod analyze;
pub mod batch;
pub mod cache;
pub mod engine;
pub mod explain;
pub mod error;
pub mod expr;
pub mod functions;
pub mod guard;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod result;

pub use analyze::{NodeStats, PlanProfile};
pub use batch::{Batch, BATCH_CAPACITY};
pub use cache::{PlanCache, PlanKey, ShardedCache};
pub use engine::{Engine, ExecStats};
pub use error::{ExecError, ResourceKind};
pub use functions::{AggState, AggregateFunction, ScalarUdf};
pub use guard::{CancelToken, QueryGuard, QueryGuardBuilder};
pub use pool::{
    morsel_map, panic_message, MorselStats, WorkerPanic, MORSEL_MAX_ITEMS, PARALLEL_THRESHOLD,
};
pub use result::ResultSet;

// Fault-injection sites live in qp-storage so every layer can share one
// registry; re-exported here for the engine's tests and callers.
pub use qp_storage::failpoint;
