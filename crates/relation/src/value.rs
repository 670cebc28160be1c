//! Dynamically-typed scalar values.
//!
//! `Value` is the cell type of every row in the system. The variants cover
//! exactly the types the paper's schemas need (Fig 1 / Fig 9): 64-bit times
//! and counts (`Long`), stream discriminators (`Int`), user/keyword/ad
//! identifiers (`Str`), and model outputs such as z-scores and predicted CTRs
//! (`Double`).
//!
//! Floating-point cells must be totally ordered and hashable so they can be
//! used in group-by keys, canonical stream normalization, and deterministic
//! sorts; we therefore wrap `f64` comparisons in a total order (`NaN` sorts
//! last, `-0.0 == 0.0` is distinguished by bits only for hashing).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically-typed scalar cell.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32-bit signed integer (used for `StreamId`).
    Int(i32),
    /// 64-bit signed integer (used for `Time` and counts).
    Long(i64),
    /// 64-bit float (scores, CTRs, model weights).
    Double(f64),
    /// Interned UTF-8 string (identifiers). `Arc` keeps row cloning cheap:
    /// rows are cloned on every multicast/shuffle and identifiers dominate
    /// row width in the BT logs.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract a bool, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract an `i64`, widening `Int`.
    pub fn as_long(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(i64::from(*v)),
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract an `i32`.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Long(v) => i32::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Extract an `f64`, widening integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(f64::from(*v)),
            Value::Long(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Human-readable name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Long(_) => "long",
            Value::Double(_) => "double",
            Value::Str(_) => "str",
        }
    }

    /// Approximate in-memory width in bytes, used by the optimizer's
    /// exchange-cost model (paper §VI, "Cost Estimation").
    pub fn width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 4,
            Value::Long(_) | Value::Double(_) => 8,
            Value::Str(s) => s.len() + 8,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Long(_) => 3,
            Value::Double(_) => 4,
            Value::Str(_) => 5,
        }
    }

    /// Numeric cross-type equality: `Int(3) == Long(3) == Double(3.0)`.
    ///
    /// Used by expression evaluation and join keys so that queries do not
    /// need explicit casts between integer widths.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Null, Value::Null) => true,
            _ => match (self.as_double(), other.as_double()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // One `Arc` (a dictionary entry handed out twice) is one string.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across all variants: values of different runtime types
    /// order by a fixed type rank, numeric values within `Double` use the
    /// IEEE total order. This is the order used for canonical stream
    /// normalization, so it must be total and deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Long(a), Value::Long(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => total_f64_cmp(*a, *b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Long(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_widen_numeric_types() {
        assert_eq!(Value::Int(7).as_long(), Some(7));
        assert_eq!(Value::Long(7).as_double(), Some(7.0));
        assert_eq!(Value::Double(2.5).as_double(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::str("x").as_long(), None);
    }

    #[test]
    fn loose_eq_crosses_numeric_types() {
        assert!(Value::Int(3).loose_eq(&Value::Long(3)));
        assert!(Value::Long(3).loose_eq(&Value::Double(3.0)));
        assert!(!Value::Long(3).loose_eq(&Value::Double(3.5)));
        assert!(!Value::str("3").loose_eq(&Value::Long(3)));
    }

    #[test]
    fn order_is_total_including_nan() {
        let mut vs = [
            Value::Double(f64::NAN),
            Value::Double(1.0),
            Value::Null,
            Value::str("a"),
            Value::Long(5),
        ];
        vs.sort();
        // Type rank: Null < Long < Double < Str; NaN sorts after ordinary
        // doubles under the IEEE total order.
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Long(5));
        assert_eq!(vs[2], Value::Double(1.0));
        assert!(matches!(vs[3], Value::Double(v) if v.is_nan()));
        assert_eq!(vs[4], Value::str("a"));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Long(42).to_string(), "42");
        assert_eq!(Value::str("kw").to_string(), "kw");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn hash_distinguishes_type_rank() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_ne!(h(&Value::Int(1)), h(&Value::Long(1)));
        assert_eq!(h(&Value::str("a")), h(&Value::str("a")));
    }

    #[test]
    fn width_reflects_payload_size() {
        assert_eq!(Value::Long(1).width(), 8);
        assert!(Value::str("abcdef").width() > Value::str("a").width());
    }
}
