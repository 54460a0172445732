//! Shared test support for the engine's integration tests.

pub mod row_oracle;
