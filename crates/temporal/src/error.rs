//! Error type for the temporal engine.

use relation::RelationError;
use std::fmt;

/// Errors raised while building or executing CQ plans.
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalError {
    /// Plan construction or validation failed (bad schema, unknown node…).
    Plan(String),
    /// Expression evaluation failed at runtime.
    Eval(String),
    /// An input stream violated an invariant (schema mismatch, bad rows).
    Input(String),
    /// A lifetime operator moved an endpoint past the range of `Time`.
    TimeOverflow(String),
    /// An integer SUM's snapshot at instant `at` does not fit a `Long`.
    SumOverflow {
        /// The aggregate's output column.
        aggregate: String,
        /// The instant the snapshot starts at.
        at: i64,
    },
    /// Propagated relational-layer error.
    Relation(RelationError),
}

impl fmt::Display for TemporalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalError::Plan(m) => write!(f, "plan error: {m}"),
            TemporalError::Eval(m) => write!(f, "eval error: {m}"),
            TemporalError::Input(m) => write!(f, "input error: {m}"),
            TemporalError::TimeOverflow(m) => write!(f, "time overflow: {m}"),
            TemporalError::SumOverflow { aggregate, at } => write!(
                f,
                "sum overflow: aggregate `{aggregate}` at instant {at} leaves the range of a long"
            ),
            TemporalError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TemporalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TemporalError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for TemporalError {
    fn from(e: RelationError) -> Self {
        TemporalError::Relation(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TemporalError>;
