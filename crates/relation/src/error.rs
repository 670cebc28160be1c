//! Error type shared by the relational layer.

use std::fmt;

/// Errors raised by the relational data model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A column name was not found in a schema.
    UnknownColumn(String),
    /// A value had a different type than the schema declared.
    TypeMismatch {
        /// Column (or context) where the mismatch occurred.
        column: String,
        /// Type the schema expected.
        expected: String,
        /// Type actually present.
        actual: String,
    },
    /// A row had a different arity than its schema.
    ArityMismatch {
        /// Number of fields the schema declares.
        expected: usize,
        /// Number of values in the row.
        actual: usize,
    },
    /// Stored bytes (an extent image) are damaged or disagree with what
    /// they claim to hold.
    Corrupt(String),
    /// Two schemas that had to be identical were not.
    SchemaMismatch(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            RelationError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in `{column}`: expected {expected}, got {actual}"
            ),
            RelationError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} fields, row has {actual}"
                )
            }
            RelationError::Corrupt(msg) => write!(f, "corrupt extent: {msg}"),
            RelationError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, RelationError>;
