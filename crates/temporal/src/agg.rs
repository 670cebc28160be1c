//! Aggregate specifications and incremental accumulators.
//!
//! Snapshot aggregation (paper §II-A.2) reports a value for every maximal
//! interval over which the set of *active* events is constant. The sweep in
//! [`crate::operators::aggregate`] adds and removes events as their
//! lifetimes open and close, so accumulators must support **retraction**:
//! Count/Sum/Avg keep running sums, Min/Max keep an ordered multiset.
//!
//! Accumulators read their arguments as [`Cell`]s: a [`Value`] borrowed
//! from wherever the event's arguments live — a typed batch column in the
//! batch sweep, the values a real-time session retains — so COUNT, SUM,
//! AVG and STDDEV build no `Value` per event. MIN, MAX and COUNT_DISTINCT
//! own one per distinct value in their multisets.
//!
//! An integer SUM accumulates in `i128`. Every partial sum of at most 2^64
//! `i64` values fits it, so the running sum is exact under any order of
//! adds and retractions at an instant. Only a snapshot's value must fit a
//! `Long`; one that does not is [`TemporalError::SumOverflow`], naming the
//! aggregate and the instant.

use crate::compiled::CompiledExpr;
use crate::error::{Result, TemporalError};
use crate::expr::Expr;
use crate::time::Time;
use relation::{ColumnType, Schema, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One argument cell as an accumulator reads it: [`Value`]'s variants,
/// the string borrowed.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// Absent value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// A string, borrowed from its dictionary or value.
    Str(&'a Arc<str>),
}

impl<'a> Cell<'a> {
    /// The cell `v` holds.
    pub fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(x) => Cell::Int(*x),
            Value::Long(x) => Cell::Long(*x),
            Value::Double(x) => Cell::Double(*x),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// The cell as an owned value.
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(x) => Value::Int(x),
            Cell::Long(x) => Value::Long(x),
            Cell::Double(x) => Value::Double(x),
            Cell::Str(s) => Value::Str(Arc::clone(s)),
        }
    }

    /// [`Value::as_long`].
    pub(crate) fn as_long(self) -> Option<i64> {
        match self {
            Cell::Int(x) => Some(i64::from(x)),
            Cell::Long(x) => Some(x),
            _ => None,
        }
    }

    /// [`Value::as_double`].
    fn as_double(self) -> Option<f64> {
        match self {
            Cell::Int(x) => Some(f64::from(x)),
            Cell::Long(x) => Some(x as f64),
            Cell::Double(x) => Some(x),
            _ => None,
        }
    }

    /// [`Value`]'s total order: cells of one variant by value (doubles in
    /// IEEE total order), of different variants by the variant's rank.
    pub(crate) fn total_cmp(self, other: Cell<'_>) -> Ordering {
        match (self, other) {
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(&b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(&b),
            (Cell::Long(a), Cell::Long(b)) => a.cmp(&b),
            (Cell::Double(a), Cell::Double(b)) => a.total_cmp(&b),
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (a, b) => a.to_value().cmp(&b.to_value()),
        }
    }
}

/// An aggregate over the active-event snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum AggExpr {
    /// Number of active events.
    Count,
    /// Sum of a numeric expression.
    Sum(Expr),
    /// Minimum of an expression.
    Min(Expr),
    /// Maximum of an expression.
    Max(Expr),
    /// Mean of a numeric expression (double).
    Avg(Expr),
    /// Population standard deviation of a numeric expression (double).
    StdDev(Expr),
    /// Number of distinct non-null values of an expression.
    CountDistinct(Expr),
}

impl AggExpr {
    /// Result type of the aggregate against the input schema.
    pub fn infer_type(&self, schema: &Schema) -> Result<ColumnType> {
        match self {
            AggExpr::Count => Ok(ColumnType::Long),
            AggExpr::Sum(e) => match e.infer_type(schema)? {
                ColumnType::Double => Ok(ColumnType::Double),
                ColumnType::Int | ColumnType::Long => Ok(ColumnType::Long),
                t => Err(TemporalError::Plan(format!("SUM over non-numeric {t}"))),
            },
            AggExpr::Min(e) | AggExpr::Max(e) => e.infer_type(schema),
            AggExpr::Avg(e) => match e.infer_type(schema)? {
                ColumnType::Int | ColumnType::Long | ColumnType::Double => Ok(ColumnType::Double),
                t => Err(TemporalError::Plan(format!("AVG over non-numeric {t}"))),
            },
            AggExpr::StdDev(e) => match e.infer_type(schema)? {
                ColumnType::Int | ColumnType::Long | ColumnType::Double => Ok(ColumnType::Double),
                t => Err(TemporalError::Plan(format!("STDDEV over non-numeric {t}"))),
            },
            AggExpr::CountDistinct(e) => e.infer_type(schema).map(|_| ColumnType::Long),
        }
    }

    /// The argument expression, if any.
    pub fn input_expr(&self) -> Option<&Expr> {
        match self {
            AggExpr::Count => None,
            AggExpr::Sum(e)
            | AggExpr::Min(e)
            | AggExpr::Max(e)
            | AggExpr::Avg(e)
            | AggExpr::StdDev(e)
            | AggExpr::CountDistinct(e) => Some(e),
        }
    }

    /// The error of the aggregate named `name` whose snapshot at instant
    /// `at` has no value: an integer SUM whose total leaves `i64`.
    pub(crate) fn overflow(name: &str, at: Time) -> TemporalError {
        TemporalError::SumOverflow {
            aggregate: name.to_string(),
            at,
        }
    }

    /// Build the matching accumulator for input `schema`: a SUM's is an
    /// integer or a double sum, as its argument's type says.
    pub fn accumulator(&self, schema: &Schema) -> Result<Accumulator> {
        Ok(match self {
            AggExpr::Count => Accumulator::Count { n: 0 },
            AggExpr::Sum(e) => match e.infer_type(schema)? {
                ColumnType::Double => Accumulator::DoubleSum { sum: 0.0, n: 0 },
                _ => Accumulator::Sum { sum: 0, n: 0 },
            },
            AggExpr::Avg(_) => Accumulator::Avg { sum: 0.0, n: 0 },
            AggExpr::Min(_) => Accumulator::Extreme {
                values: BTreeMap::new(),
                min: true,
            },
            AggExpr::Max(_) => Accumulator::Extreme {
                values: BTreeMap::new(),
                min: false,
            },
            AggExpr::StdDev(_) => Accumulator::Moments {
                sum: 0.0,
                sum_sq: 0.0,
                n: 0,
            },
            AggExpr::CountDistinct(_) => Accumulator::Distinct {
                values: BTreeMap::new(),
            },
        })
    }

    /// Compile the argument against a schema for index-resolved batch
    /// evaluation (`None` for COUNT, which takes no argument); an argument
    /// with no type is its type error.
    pub(crate) fn compile_arg(&self, schema: &Schema) -> Result<Option<CompiledExpr>> {
        (self.input_expr())
            .map(|e| CompiledExpr::compile(e, schema))
            .transpose()
    }

    /// Whether this aggregate over a wide window can be derived exactly by
    /// combining per-cell partials of a finer factor window
    /// (`plan::factor_windows`). COUNT/MIN/MAX and *integer* SUM combine
    /// bit-exactly; SUM over doubles is excluded because float addition is
    /// not associative, so the factored total could differ in the last ulp
    /// from the direct sweep. AVG/STDDEV/COUNT_DISTINCT have no
    /// partial-combining form here and fall back to private windows.
    pub fn combinable(&self, schema: &Schema) -> bool {
        match self {
            AggExpr::Count => true,
            AggExpr::Sum(e) => {
                matches!(e.infer_type(schema), Ok(ColumnType::Int | ColumnType::Long))
            }
            AggExpr::Min(_) | AggExpr::Max(_) => true,
            AggExpr::Avg(_) | AggExpr::StdDev(_) | AggExpr::CountDistinct(_) => false,
        }
    }

    /// The aggregate that combines factor-cell partials stored in column
    /// `name` into this aggregate's value over a wider window: counts and
    /// sums add up, extrema nest. `None` exactly when not [`combinable`].
    ///
    /// [`combinable`]: AggExpr::combinable
    pub fn combining(&self, name: &str) -> Option<AggExpr> {
        match self {
            AggExpr::Count | AggExpr::Sum(_) => Some(AggExpr::Sum(Expr::Column(name.into()))),
            AggExpr::Min(_) => Some(AggExpr::Min(Expr::Column(name.into()))),
            AggExpr::Max(_) => Some(AggExpr::Max(Expr::Column(name.into()))),
            AggExpr::Avg(_) | AggExpr::StdDev(_) | AggExpr::CountDistinct(_) => None,
        }
    }
}

impl std::fmt::Display for AggExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggExpr::Count => write!(f, "COUNT()"),
            AggExpr::Sum(e) => write!(f, "SUM({e})"),
            AggExpr::Min(e) => write!(f, "MIN({e})"),
            AggExpr::Max(e) => write!(f, "MAX({e})"),
            AggExpr::Avg(e) => write!(f, "AVG({e})"),
            AggExpr::StdDev(e) => write!(f, "STDDEV({e})"),
            AggExpr::CountDistinct(e) => write!(f, "COUNT_DISTINCT({e})"),
        }
    }
}

/// Retractable accumulator state for one aggregate.
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// COUNT state.
    Count {
        /// Active-event count.
        n: i64,
    },
    /// SUM state over `Int` or `Long` values.
    Sum {
        /// The running sum, exact (see the module docs).
        sum: i128,
        /// Number of non-null values.
        n: i64,
    },
    /// SUM state over `Double` values.
    DoubleSum {
        /// The running sum.
        sum: f64,
        /// Number of non-null values.
        n: i64,
    },
    /// AVG state.
    Avg {
        /// Running sum (as double).
        sum: f64,
        /// Number of non-null values.
        n: i64,
    },
    /// MIN/MAX state: ordered multiset of active values.
    Extreme {
        /// value -> multiplicity.
        values: BTreeMap<Value, usize>,
        /// True for MIN, false for MAX.
        min: bool,
    },
    /// STDDEV state: first two moments.
    Moments {
        /// Σx.
        sum: f64,
        /// Σx².
        sum_sq: f64,
        /// Number of non-null values.
        n: i64,
    },
    /// COUNT DISTINCT state: multiset of active values.
    Distinct {
        /// value -> multiplicity.
        values: BTreeMap<Value, usize>,
    },
}

impl Accumulator {
    /// Add one value to the snapshot. Null values are ignored (SQL-style),
    /// except COUNT, which counts events, not values.
    #[inline]
    pub fn add(&mut self, v: Cell<'_>) {
        match self {
            Accumulator::Count { n } => *n += 1,
            Accumulator::Sum { sum, n } => {
                if let Some(x) = v.as_long() {
                    *sum += i128::from(x);
                    *n += 1;
                }
            }
            Accumulator::DoubleSum { sum, n } => {
                if let Cell::Double(x) = v {
                    *sum += x;
                    *n += 1;
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(d) = v.as_double() {
                    *sum += d;
                    *n += 1;
                }
            }
            Accumulator::Extreme { values, .. } | Accumulator::Distinct { values } => {
                if !matches!(v, Cell::Null) {
                    *values.entry(v.to_value()).or_insert(0) += 1;
                }
            }
            Accumulator::Moments { sum, sum_sq, n } => {
                if let Some(x) = v.as_double() {
                    *sum += x;
                    *sum_sq += x * x;
                    *n += 1;
                }
            }
        }
    }

    /// Retract one previously-added value.
    #[inline]
    pub fn remove(&mut self, v: Cell<'_>) {
        match self {
            Accumulator::Count { n } => *n -= 1,
            Accumulator::Sum { sum, n } => {
                if let Some(x) = v.as_long() {
                    *sum -= i128::from(x);
                    *n -= 1;
                }
            }
            Accumulator::DoubleSum { sum, n } => {
                if let Cell::Double(x) = v {
                    *sum -= x;
                    *n -= 1;
                }
            }
            Accumulator::Avg { sum, n } => {
                if let Some(d) = v.as_double() {
                    *sum -= d;
                    *n -= 1;
                }
            }
            Accumulator::Extreme { values, .. } | Accumulator::Distinct { values } => {
                if matches!(v, Cell::Null) {
                    return;
                }
                let v = v.to_value();
                if let Some(count) = values.get_mut(&v) {
                    *count -= 1;
                    if *count == 0 {
                        values.remove(&v);
                    }
                }
            }
            Accumulator::Moments { sum, sum_sq, n } => {
                if let Some(x) = v.as_double() {
                    *sum -= x;
                    *sum_sq -= x * x;
                    *n -= 1;
                }
            }
        }
    }

    /// Back to the freshly built state. The sweep calls this whenever the
    /// active set empties: every value has been retracted by then, so the
    /// multisets are already empty, but a float sum keeps the rounding
    /// residue of what passed through it, which must not leak into the
    /// next, unrelated burst of events.
    pub fn reset(&mut self) {
        match self {
            Accumulator::Count { n } => *n = 0,
            Accumulator::Sum { sum, n } => (*sum, *n) = (0, 0),
            Accumulator::DoubleSum { sum, n } | Accumulator::Avg { sum, n } => {
                (*sum, *n) = (0.0, 0)
            }
            Accumulator::Moments { sum, sum_sq, n } => (*sum, *sum_sq, *n) = (0.0, 0.0, 0),
            Accumulator::Extreme { values, .. } | Accumulator::Distinct { values } => {
                values.clear()
            }
        }
    }

    /// Current aggregate value for the snapshot: `None` when it has none,
    /// an integer SUM whose total does not fit a `Long`
    /// ([`TemporalError::SumOverflow`] is the error). A double it computes
    /// that is NaN is `f64::NAN`: Rust leaves the sign and payload of a NaN
    /// that arithmetic yields unspecified, so two builds could publish
    /// different bits, and two NaN snapshots could fail to coalesce.
    pub fn value(&self) -> Option<Value> {
        let double = |x: f64| Value::Double(if x.is_nan() { f64::NAN } else { x });
        Some(match self {
            Accumulator::Count { n } => Value::Long(*n),
            Accumulator::Sum { sum, n } => match n {
                0 => Value::Null,
                _ => Value::Long(i64::try_from(*sum).ok()?),
            },
            Accumulator::DoubleSum { sum, n } => match n {
                0 => Value::Null,
                _ => double(*sum),
            },
            Accumulator::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    double(*sum / *n as f64)
                }
            }
            Accumulator::Extreme { values, min } => {
                let entry = if *min {
                    values.keys().next()
                } else {
                    values.keys().next_back()
                };
                entry.cloned().unwrap_or(Value::Null)
            }
            Accumulator::Moments { sum, sum_sq, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    let mean = sum / *n as f64;
                    let var = (sum_sq / *n as f64 - mean * mean).max(0.0);
                    double(var.sqrt())
                }
            }
            Accumulator::Distinct { values } => Value::Long(values.len() as i64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use relation::schema::Field;

    /// `agg`'s accumulator over a `Long` `x` and a `Double` `d`.
    fn acc(agg: AggExpr) -> Accumulator {
        let s = Schema::new(vec![
            Field::new("x", ColumnType::Long),
            Field::new("d", ColumnType::Double),
        ]);
        agg.accumulator(&s).unwrap()
    }

    #[test]
    fn count_add_remove() {
        let mut a = acc(AggExpr::Count);
        a.add(Cell::of(&Value::Null));
        a.add(Cell::of(&Value::Null));
        assert_eq!(a.value().unwrap(), Value::Long(2));
        a.remove(Cell::of(&Value::Null));
        assert_eq!(a.value().unwrap(), Value::Long(1));
    }

    #[test]
    fn sum_retracts_and_types() {
        let mut a = acc(AggExpr::Sum(col("x")));
        a.add(Cell::of(&Value::Long(5)));
        a.add(Cell::of(&Value::Long(7)));
        assert_eq!(a.value().unwrap(), Value::Long(12));
        a.remove(Cell::of(&Value::Long(5)));
        assert_eq!(a.value().unwrap(), Value::Long(7));
        a.remove(Cell::of(&Value::Long(7)));
        assert!(a.value().unwrap().is_null());
        // A double argument's SUM is a double one.
        let mut d = acc(AggExpr::Sum(col("d")));
        d.add(Cell::of(&Value::Double(7.0)));
        d.add(Cell::of(&Value::Double(0.5)));
        assert_eq!(d.value().unwrap(), Value::Double(7.5));
        d.remove(Cell::of(&Value::Double(7.0)));
        d.remove(Cell::of(&Value::Double(0.5)));
        assert!(d.value().unwrap().is_null());
    }

    /// The running sum is exact past `i64`: only a snapshot that does not
    /// fit has no value, and the sum comes back into range as values leave.
    #[test]
    fn an_integer_sum_past_i64_has_no_value() {
        let mut a = acc(AggExpr::Sum(col("x")));
        a.add(Cell::of(&Value::Long(i64::MAX)));
        a.add(Cell::of(&Value::Long(1)));
        assert_eq!(a.value(), None);
        a.add(Cell::of(&Value::Int(i32::MAX)));
        a.remove(Cell::of(&Value::Long(i64::MAX)));
        assert_eq!(a.value(), Some(Value::Long(1 + i64::from(i32::MAX))));
        let mut low = acc(AggExpr::Sum(col("x")));
        low.add(Cell::of(&Value::Long(i64::MIN)));
        assert_eq!(low.value(), Some(Value::Long(i64::MIN)));
        low.add(Cell::of(&Value::Long(-1)));
        assert_eq!(low.value(), None);
    }

    #[test]
    fn min_max_multiset() {
        let mut mn = acc(AggExpr::Min(col("x")));
        let mut mx = acc(AggExpr::Max(col("x")));
        for v in [3i64, 1, 1, 9] {
            mn.add(Cell::of(&Value::Long(v)));
            mx.add(Cell::of(&Value::Long(v)));
        }
        assert_eq!(mn.value().unwrap(), Value::Long(1));
        assert_eq!(mx.value().unwrap(), Value::Long(9));
        mn.remove(Cell::of(&Value::Long(1)));
        assert_eq!(mn.value().unwrap(), Value::Long(1)); // one copy remains
        mn.remove(Cell::of(&Value::Long(1)));
        assert_eq!(mn.value().unwrap(), Value::Long(3));
        mx.remove(Cell::of(&Value::Long(9)));
        assert_eq!(mx.value().unwrap(), Value::Long(3));
    }

    #[test]
    fn avg_over_mixed_numerics() {
        let mut a = acc(AggExpr::Avg(col("x")));
        a.add(Cell::of(&Value::Long(1)));
        a.add(Cell::of(&Value::Double(2.0)));
        assert_eq!(a.value().unwrap(), Value::Double(1.5));
    }

    #[test]
    fn nulls_ignored_except_count() {
        let mut s = acc(AggExpr::Sum(col("x")));
        s.add(Cell::of(&Value::Null));
        assert!(s.value().unwrap().is_null());
        s.add(Cell::of(&Value::Long(4)));
        s.add(Cell::of(&Value::Null));
        assert_eq!(s.value().unwrap(), Value::Long(4));
    }

    #[test]
    fn stddev_retracts() {
        let mut a = acc(AggExpr::StdDev(col("x")));
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.add(Cell::of(&Value::Double(v)));
        }
        // Classic example: population stddev = 2.
        let got = a.value().unwrap().as_double().unwrap();
        assert!((got - 2.0).abs() < 1e-12, "stddev {got}");
        // Retract down to a two-value set: {2, 4} → stddev 1.
        for v in [4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.remove(Cell::of(&Value::Double(v)));
        }
        let got = a.value().unwrap().as_double().unwrap();
        assert!((got - 1.0).abs() < 1e-12, "stddev {got}");
        a.remove(Cell::of(&Value::Double(2.0)));
        a.remove(Cell::of(&Value::Double(4.0)));
        assert!(a.value().unwrap().is_null());
    }

    #[test]
    fn count_distinct_multiset() {
        let mut a = acc(AggExpr::CountDistinct(col("x")));
        for v in ["a", "b", "a"] {
            a.add(Cell::of(&Value::str(v)));
        }
        assert_eq!(a.value().unwrap(), Value::Long(2));
        a.remove(Cell::of(&Value::str("a")));
        assert_eq!(a.value().unwrap(), Value::Long(2), "one `a` copy remains");
        a.remove(Cell::of(&Value::str("a")));
        assert_eq!(a.value().unwrap(), Value::Long(1));
        a.add(Cell::of(&Value::Null)); // nulls don't count
        assert_eq!(a.value().unwrap(), Value::Long(1));
    }

    #[test]
    fn infer_types() {
        let s = Schema::new(vec![
            Field::new("L", ColumnType::Long),
            Field::new("D", ColumnType::Double),
            Field::new("S", ColumnType::Str),
        ]);
        assert_eq!(AggExpr::Count.infer_type(&s).unwrap(), ColumnType::Long);
        assert_eq!(
            AggExpr::Sum(col("L")).infer_type(&s).unwrap(),
            ColumnType::Long
        );
        assert_eq!(
            AggExpr::Sum(col("D")).infer_type(&s).unwrap(),
            ColumnType::Double
        );
        assert_eq!(
            AggExpr::Avg(col("L")).infer_type(&s).unwrap(),
            ColumnType::Double
        );
        assert_eq!(
            AggExpr::Min(col("S")).infer_type(&s).unwrap(),
            ColumnType::Str
        );
        assert!(AggExpr::Sum(col("S")).infer_type(&s).is_err());
    }
}
