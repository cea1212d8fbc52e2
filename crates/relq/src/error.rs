//! Error type shared by every `relq` operation.

use std::fmt;

/// Errors produced while building or executing relational plans.
#[derive(Debug, Clone, PartialEq)]
pub enum RelqError {
    /// A referenced column does not exist in the input schema.
    UnknownColumn(String),
    /// A referenced table is not registered in the catalog.
    UnknownTable(String),
    /// A value of an unexpected type was encountered during evaluation.
    TypeMismatch { expected: &'static str, found: String },
    /// A row had a different arity than the schema it was inserted into.
    ArityMismatch { expected: usize, found: usize },
    /// Two schemas that must be union-compatible differ.
    SchemaMismatch(String),
    /// A plan node was configured incorrectly (e.g. join key count mismatch).
    InvalidPlan(String),
    /// Division by zero or another arithmetic failure.
    Arithmetic(String),
    /// A `Plan::Param` / `Expr::Param` was executed without a binding.
    UnboundParam(String),
    /// A `Plan::IndexJoin` referenced a table that has no index on the
    /// requested key columns (register it with `Catalog::register_indexed`).
    MissingIndex { table: String, keys: Vec<String> },
    /// A `Plan::TopKBounded` referenced a table that has no posting index
    /// (build one with `PostingIndex::from_lanes` and add it with
    /// `Catalog::attach_posting`).
    MissingPosting(String),
}

impl fmt::Display for RelqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelqError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RelqError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            RelqError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelqError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected} values, found {found}")
            }
            RelqError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            RelqError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            RelqError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            RelqError::UnboundParam(p) => write!(f, "unbound parameter: {p}"),
            RelqError::MissingIndex { table, keys } => {
                write!(f, "no index on table {table} for key columns [{}]", keys.join(", "))
            }
            RelqError::MissingPosting(table) => {
                write!(f, "no posting index on table {table}")
            }
        }
    }
}

impl std::error::Error for RelqError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RelqError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelqError::UnknownColumn("tid".to_string());
        assert!(e.to_string().contains("tid"));
        let e = RelqError::TypeMismatch { expected: "Int", found: "Str".to_string() };
        assert!(e.to_string().contains("Int"));
        assert!(e.to_string().contains("Str"));
        let e = RelqError::ArityMismatch { expected: 3, found: 2 };
        assert!(e.to_string().contains('3'));
    }
}
